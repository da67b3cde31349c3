#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "dockmine/compress/gzip.h"
#include "dockmine/tar/header.h"
#include "dockmine/tar/reader.h"
#include "dockmine/tar/writer.h"

namespace dockmine::tar {
namespace {

std::vector<Entry> read_all(std::string_view archive) {
  Reader reader(archive);
  std::vector<Entry> entries;
  auto status = reader.for_each([&](const Entry& e) { entries.push_back(e); });
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  return entries;
}

TEST(TarOctalTest, RoundTrips) {
  char field[12];
  for (std::uint64_t v : {0ULL, 1ULL, 0644ULL, 123456ULL, 077777777ULL}) {
    write_octal(field, sizeof field, v);
    EXPECT_EQ(read_octal({field, sizeof field}).value(), v);
  }
}

TEST(TarOctalTest, RejectsGarbage) {
  EXPECT_FALSE(read_octal("12x4").ok());
  EXPECT_EQ(read_octal("   7 ").value(), 7u);
  EXPECT_EQ(read_octal(std::string_view("\0\0\0", 3)).value(), 0u);
}

TEST(TarHeaderTest, EncodeDecodeRoundTrip) {
  Header in;
  in.name = "usr/bin/tool";
  in.mode = 0755;
  in.size = 1234;
  in.mtime = 1496102400;
  in.type = EntryType::kFile;
  in.uname = "root";
  std::string block;
  encode_header(in, block);
  ASSERT_EQ(block.size(), kBlockSize);
  auto out = decode_header(block);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().name, in.name);
  EXPECT_EQ(out.value().mode, in.mode);
  EXPECT_EQ(out.value().size, in.size);
  EXPECT_EQ(out.value().mtime, in.mtime);
  EXPECT_EQ(out.value().uname, "root");
}

TEST(TarHeaderTest, ChecksumMismatchDetected) {
  Header in;
  in.name = "f";
  std::string block;
  encode_header(in, block);
  block[0] ^= 0x7;
  auto out = decode_header(block);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code(), util::ErrorCode::kCorrupt);
}

TEST(TarHeaderTest, ZeroBlockIsEndMarker) {
  const std::string zeros(kBlockSize, '\0');
  EXPECT_TRUE(is_zero_block(zeros));
  EXPECT_EQ(decode_header(zeros).error().code(), util::ErrorCode::kNotFound);
}

TEST(TarWriterTest, FilesDirsLinksRoundTrip) {
  Writer writer;
  writer.add_directory("etc", 0755);
  writer.add_file("etc/hostname", "dockmine\n", 0644, 12345);
  writer.add_symlink("etc/alias", "hostname");
  writer.add_hardlink("etc/hard", "etc/hostname");
  writer.add_file("empty", "");
  const std::string archive = writer.finish();
  EXPECT_EQ(archive.size() % kBlockSize, 0u);

  const auto entries = read_all(archive);
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_TRUE(entries[0].is_directory());
  EXPECT_EQ(entries[0].header.name, "etc/");
  EXPECT_TRUE(entries[1].is_file());
  EXPECT_EQ(entries[1].content, "dockmine\n");
  EXPECT_EQ(entries[1].header.mtime, 12345u);
  EXPECT_TRUE(entries[2].is_symlink());
  EXPECT_EQ(entries[2].header.linkname, "hostname");
  EXPECT_EQ(entries[3].header.type, EntryType::kHardLink);
  EXPECT_TRUE(entries[4].is_file());
  EXPECT_TRUE(entries[4].content.empty());
}

TEST(TarWriterTest, LongNamesUseGnuExtension) {
  std::string long_path = "very";
  while (long_path.size() < 180) long_path += "/deeply/nested";
  long_path += "/file.txt";
  Writer writer;
  writer.add_file(long_path, "x");
  // Entry content views the archive, so it must outlive them.
  const std::string archive = writer.finish();
  const auto entries = read_all(archive);
  ASSERT_EQ(entries.size(), 1u);  // 'L' entry is transparent
  EXPECT_EQ(entries[0].header.name, long_path);
  EXPECT_EQ(entries[0].content, "x");
}

TEST(TarWriterTest, StreamedEntryMatchesAddFile) {
  std::string long_path = "opt";
  while (long_path.size() < 120) long_path += "/nested";
  long_path += "/data.bin";
  for (const std::string& path : {std::string("etc/app.conf"), long_path}) {
    for (const std::size_t size : {0, 1, 511, 512, 513}) {
      std::string content(size, '\0');
      for (std::size_t i = 0; i < size; ++i) {
        content[i] = static_cast<char>('a' + i % 23);
      }
      Writer whole;
      whole.add_directory("etc");
      whole.add_file(path, content);
      whole.add_file("after", "tail");
      const std::string expected = whole.finish();

      // The same archive with the content streamed in 7-byte pieces and
      // drained after every piece.
      Writer streamed;
      std::string archive;
      const auto sink = [&](std::string_view piece) { archive += piece; };
      streamed.add_directory("etc");
      streamed.drain(sink);
      streamed.begin_file(path, size);
      for (std::size_t at = 0; at < size; at += 7) {
        streamed.pending().append(content, at, 7);
        streamed.drain(sink);
      }
      streamed.end_file();
      streamed.add_file("after", "tail");
      EXPECT_EQ(streamed.size_so_far(), expected.size() - 2 * kBlockSize);
      archive += streamed.finish();
      EXPECT_EQ(archive, expected) << path << ", " << size << " bytes";

      const auto entries = read_all(archive);
      ASSERT_EQ(entries.size(), 3u);
      EXPECT_EQ(entries[1].header.name, path);
      EXPECT_EQ(entries[1].content, content);
    }
  }
}

TEST(TarWriterTest, VeryLongNameBeyond255) {
  std::string long_path(400, 'a');
  long_path.insert(200, "/");
  Writer writer;
  writer.add_file(long_path, "y");
  const auto entries = read_all(writer.finish());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].header.name, long_path);
}

TEST(TarWriterTest, WhiteoutMarker) {
  Writer writer;
  writer.add_whiteout("usr/lib", "removed.so");
  const auto entries = read_all(writer.finish());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].header.name, "usr/lib/.wh.removed.so");
  EXPECT_TRUE(entries[0].is_whiteout());
  EXPECT_TRUE(entries[0].is_file());
}

TEST(TarWriterTest, EmptyArchiveHasTrailerOnly) {
  Writer writer;
  const std::string archive = writer.finish();
  EXPECT_EQ(archive.size(), 2 * kBlockSize);
  EXPECT_TRUE(read_all(archive).empty());
}

TEST(TarWriterTest, ContentPaddedToBlocks) {
  Writer writer;
  writer.add_file("a", std::string(513, 'q'));
  const std::string archive = writer.finish();
  // header + 2 content blocks + 2 trailer blocks
  EXPECT_EQ(archive.size(), 5 * kBlockSize);
}

TEST(TarReaderTest, BodyPastEndIsCorrupt) {
  Writer writer;
  writer.add_file("a", std::string(2000, 'z'));
  std::string archive = writer.finish();
  archive.resize(kBlockSize + 512);  // keep header, cut body
  Reader reader(archive);
  auto first = reader.next();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code(), util::ErrorCode::kCorrupt);
  // Errors are sticky.
  EXPECT_FALSE(reader.next().ok());
}

TEST(TarReaderTest, GarbageHeaderIsCorrupt) {
  std::string garbage(kBlockSize, 'G');
  Reader reader(garbage);
  auto entry = reader.next();
  ASSERT_FALSE(entry.ok());
}

TEST(TarReaderTest, MissingTrailerTolerated) {
  Writer writer;
  writer.add_file("a", "b");
  std::string archive = writer.finish();
  archive.resize(archive.size() - 2 * kBlockSize);  // strip trailer
  const auto entries = read_all(archive);
  ASSERT_EQ(entries.size(), 1u);
}

TEST(TarReaderTest, LongNamesAreCappedAtTheLimit) {
  // The 'L' body is the name plus its NUL.
  const std::string at_cap(kMaxLongName - 1, 'n');
  Writer fits;
  fits.add_file(at_cap, "x");
  const auto entries = read_all(fits.finish());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].header.name, at_cap);

  Writer over;
  over.add_file(at_cap + "n", "x");
  const std::string archive = over.finish();
  Reader reader(archive);
  auto entry = reader.next();
  ASSERT_FALSE(entry.ok());
  EXPECT_EQ(entry.error().code(), util::ErrorCode::kCorrupt);
}

/// Every parser event of `archive` fed in pieces of `piece` bytes, with
/// consecutive data pieces joined, as one string per entry.
struct Walk {
  std::vector<std::string> entries;  ///< "name|type|size|body"
  bool ok = false;
  util::ErrorCode code = util::ErrorCode::kInternal;
};

Walk walk_in_pieces(std::string_view archive, std::size_t piece) {
  Walk walk;
  Parser parser;
  std::string current;
  util::Status status;
  bool ended = false;
  for (std::size_t at = 0; status.ok() && !ended && at < archive.size();
       at += piece) {
    std::string_view input = archive.substr(at, piece);
    for (;;) {
      auto event = parser.next(input);
      if (!event.ok()) {
        status = event.error();
        break;
      }
      if (event.value() == Parser::Event::kNeedInput) break;
      if (event.value() == Parser::Event::kEnd) {
        ended = true;
        break;
      }
      if (event.value() == Parser::Event::kEntry) {
        const Header& h = parser.header();
        current = h.name + "|" + static_cast<char>(h.type) + "|" +
                  std::to_string(h.size) + "|";
      } else if (event.value() == Parser::Event::kData) {
        current += parser.data();
      } else {
        walk.entries.push_back(current);
      }
    }
  }
  if (status.ok() && !ended) status = parser.finish();
  walk.ok = status.ok();
  if (!status.ok()) walk.code = status.error().code();
  return walk;
}

TEST(TarParserTest, AnyPieceSizeGivesTheSameWalk) {
  Writer writer;
  writer.add_directory("usr/lib");
  writer.add_file(std::string(300, 'l') + "/long.txt", std::string(1500, 'a'));
  writer.add_file("usr/lib/empty", "");
  writer.add_symlink("usr/lib/alias", "empty");
  writer.add_file("usr/lib/block", std::string(512, 'b'));
  writer.add_whiteout("usr", "gone");
  const std::string archive = writer.finish();
  // Damaged copies: a torn body, a partial header block, a bad checksum,
  // and missing trailer blocks and final padding (tolerated).
  const std::string cases[] = {
      archive,
      archive.substr(0, 3 * kBlockSize + 100),
      archive.substr(0, archive.size() - 2 * kBlockSize - 200),
      archive.substr(0, 5 * kBlockSize + 10),
      archive.substr(0, archive.size() - 2 * kBlockSize),
      std::string(archive).replace(kBlockSize * 5 + 7, 1, "#"),
  };
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const Walk whole = walk_in_pieces(cases[c], cases[c].size() + 1);
    // The in-memory Reader is the same parser fed once.
    Reader reader(cases[c]);
    std::size_t read_entries = 0;
    const util::Status read = reader.for_each([&](const Entry&) {
      ++read_entries;
    });
    EXPECT_EQ(read.ok(), whole.ok) << "case " << c;
    if (whole.ok) {
      EXPECT_EQ(read_entries, whole.entries.size()) << "case " << c;
    }
    for (const std::size_t piece : {1, 7, 511, 512, 513, 4096}) {
      const Walk split = walk_in_pieces(cases[c], piece);
      EXPECT_EQ(split.ok, whole.ok) << "case " << c << " piece " << piece;
      EXPECT_EQ(split.code, whole.code) << "case " << c << " piece " << piece;
      if (whole.ok) {
        EXPECT_EQ(split.entries, whole.entries)
            << "case " << c << " piece " << piece;
      }
    }
  }
  EXPECT_EQ(walk_in_pieces(cases[0], 1).entries.size(), 6u);
  EXPECT_TRUE(walk_in_pieces(cases[4], 3).ok);
  EXPECT_FALSE(walk_in_pieces(cases[1], 3).ok);
}

TEST(TarIntegrationTest, GzippedTarRoundTrip) {
  Writer writer;
  writer.add_directory("opt");
  std::map<std::string, std::string> files;
  for (int i = 0; i < 50; ++i) {
    const std::string path = "opt/file" + std::to_string(i) + ".txt";
    files[path] = std::string(i * 37, static_cast<char>('a' + i % 26));
    writer.add_file(path, files[path]);
  }
  auto blob = compress::gzip_compress(writer.finish());
  ASSERT_TRUE(blob.ok());
  auto tar_bytes = compress::gzip_decompress(blob.value());
  ASSERT_TRUE(tar_bytes.ok());
  std::size_t seen = 0;
  Reader reader(tar_bytes.value());
  auto status = reader.for_each([&](const Entry& entry) {
    if (!entry.is_file()) return;
    ASSERT_EQ(files.at(entry.header.name), entry.content);
    ++seen;
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(seen, files.size());
}

}  // namespace
}  // namespace dockmine::tar

#include "dockmine/compress/gzip.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "dockmine/compress/crc32.h"

namespace dockmine::compress {

namespace {

constexpr std::uint8_t kMagic1 = 0x1f;
constexpr std::uint8_t kMagic2 = 0x8b;
constexpr std::uint8_t kMethodDeflate = 8;
constexpr std::uint8_t kFlagHcrc = 0x02;
constexpr std::uint8_t kFlagExtra = 0x04;
constexpr std::uint8_t kFlagName = 0x08;
constexpr std::uint8_t kFlagComment = 0x10;

void put_le32(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v & 0xff);
  out += static_cast<char>((v >> 8) & 0xff);
  out += static_cast<char>((v >> 16) & 0xff);
  out += static_cast<char>((v >> 24) & 0xff);
}

std::uint32_t get_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// One byte past the cap, the byte that proves it exceeded: the most a
/// buffer collecting a capped payload ever needs.
std::uint64_t output_limit(std::uint64_t max_output) {
  return max_output < std::numeric_limits<std::size_t>::max() ? max_output + 1
                                                              : max_output;
}

}  // namespace

GzipWriter::GzipWriter(int level) : level_(level) {
  if (level < 1 || level > 9) {
    status_ = util::invalid_argument("gzip level must be 1..9");
    return;
  }
  deflater_ = std::make_unique<Deflater>(level);
}

GzipWriter::~GzipWriter() = default;

void GzipWriter::begin(std::string& out) {
  out_ = &out;
  size_ = 0;
  crc_.reset();
  if (!status_.ok()) return;
  out += static_cast<char>(kMagic1);
  out += static_cast<char>(kMagic2);
  out += static_cast<char>(kMethodDeflate);
  out += '\0';       // FLG: no optional fields
  put_le32(out, 0);  // MTIME: 0 => no timestamp (reproducible)
  out += static_cast<char>(level_ == 9 ? 2 : level_ == 1 ? 4 : 0);  // XFL
  out += static_cast<char>(0xff);  // OS: unknown
  deflater_->begin(out);
}

void GzipWriter::write(std::string_view piece) {
  assert(out_ != nullptr);
  if (!status_.ok() || piece.empty()) return;
  crc_.update(piece);
  size_ += piece.size();
  deflater_->write(piece);
}

util::Status GzipWriter::finish() {
  assert(out_ != nullptr);
  if (!status_.ok()) return status_;
  deflater_->finish();
  put_le32(*out_, crc_.value());
  put_le32(*out_, static_cast<std::uint32_t>(size_ & 0xffffffffULL));
  out_ = nullptr;
  return util::Status::success();
}

std::uint64_t gzip_bound(std::uint64_t raw_size) {
  // zlib 1.2.13's compressBound covers a zlib stream (6 bytes of framing
  // around DEFLATE); a gzip member frames it in 18.
  return raw_size + (raw_size >> 12) + (raw_size >> 14) + (raw_size >> 25) +
         13 + 18;
}

util::Result<std::string> gzip_compress(std::string_view raw, int level) {
  GzipWriter writer(level);
  std::string member;
  member.reserve(gzip_bound(raw.size()));  // the encoder never reallocates it
  writer.begin(member);
  writer.write(raw);
  if (auto done = writer.finish(); !done.ok()) return done.error();
  return member;
}

util::Result<GzipInfo> gzip_probe(std::string_view member) {
  const auto* p = reinterpret_cast<const unsigned char*>(member.data());
  if (member.size() < 18) return util::corrupt("gzip member too short");
  if (p[0] != kMagic1 || p[1] != kMagic2) {
    return util::corrupt("bad gzip magic");
  }
  GzipInfo info;
  info.compression_method = p[2];
  if (info.compression_method != kMethodDeflate) {
    return util::corrupt("unsupported gzip compression method " +
                         std::to_string(p[2]));
  }
  const std::uint8_t flags = p[3];
  info.mtime = get_le32(p + 4);
  std::size_t pos = 10;
  if (flags & kFlagExtra) {
    if (pos + 2 > member.size()) return util::corrupt("truncated FEXTRA");
    const std::size_t xlen = p[pos] | (static_cast<std::size_t>(p[pos + 1]) << 8);
    pos += 2 + xlen;
    if (pos > member.size()) return util::corrupt("truncated FEXTRA data");
  }
  if (flags & kFlagName) {
    while (pos < member.size() && p[pos] != 0) {
      info.original_name += static_cast<char>(p[pos++]);
    }
    if (pos >= member.size()) return util::corrupt("unterminated FNAME");
    ++pos;
  }
  if (flags & kFlagComment) {
    while (pos < member.size() && p[pos] != 0) ++pos;
    if (pos >= member.size()) return util::corrupt("unterminated FCOMMENT");
    ++pos;
  }
  if (flags & kFlagHcrc) {
    pos += 2;
    if (pos > member.size()) return util::corrupt("truncated FHCRC");
  }
  info.header_size = pos;
  return info;
}

util::Result<std::string> gzip_decompress(std::string_view member,
                                          std::uint64_t max_output) {
  GzipReader reader(member, max_output);
  std::string out;
  out.reserve(reader.size_hint());
  for (;;) {
    auto got = reader.next();
    if (!got.ok()) return std::move(got).error();
    if (got.value().empty()) break;
    out.append(got.value());
  }
  return out;
}

GzipReader::GzipReader(std::string_view member, std::uint64_t max_output)
    : max_output_(max_output) {
  auto info = gzip_probe(member);
  if (!info.ok()) {
    fail(std::move(info).error());
    return;
  }
  const std::size_t header_size = info.value().header_size;
  if (member.size() < header_size + 8) {
    fail(util::corrupt("gzip member too short"));
    return;
  }
  body_size_ = member.size() - header_size - 8;
  const auto* trailer = reinterpret_cast<const unsigned char*>(
      member.data() + member.size() - 8);
  want_crc_ = get_le32(trailer);
  want_isize_ = get_le32(trailer + 4);
  inflater_.start(member.substr(header_size, body_size_), max_output);
}

std::size_t GzipReader::size_hint() const noexcept {
  return static_cast<std::size_t>(
      std::min({std::uint64_t{want_isize_}, output_limit(max_output_),
                4 * std::uint64_t{body_size_}}));
}

util::Result<std::string_view> GzipReader::next() {
  if (!status_.ok()) return status_.error();
  if (ended_) return std::string_view();
  auto got = inflater_.next();
  if (!got.ok()) return fail(std::move(got).error());
  crc_.update(got.value());
  if (inflater_.ended()) {
    ended_ = true;
    if (crc_.value() != want_crc_) {
      return fail(util::corrupt("gzip CRC mismatch"));
    }
    if (static_cast<std::uint32_t>(inflater_.produced() & 0xffffffffULL) !=
        want_isize_) {
      return fail(util::corrupt("gzip ISIZE mismatch"));
    }
  }
  return got;
}

}  // namespace dockmine::compress

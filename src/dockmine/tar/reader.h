// Tar archive parsing. `Parser` is the one header loop: it takes an archive
// in pieces of any size (a whole in-memory tar, or the windows an inflater
// fills) and reports members and their bodies as it reaches them, holding
// no body except a GNU long name. `Reader` walks an in-memory archive with
// it entry by entry; content is exposed as a view into the archive buffer,
// so profiling a layer does not copy file bodies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dockmine/tar/header.h"
#include "dockmine/util/error.h"

namespace dockmine::tar {

/// Largest GNU 'L' long-name body either reader accepts (the name plus its
/// NUL). Linux PATH_MAX is 4096; a longer declaration is kCorrupt, so a
/// hostile header cannot make a reader buffer an arbitrary body.
inline constexpr std::uint64_t kMaxLongName = 64 * 1024;

/// Overlay whiteout marker? (basename starts with ".wh.")
bool is_whiteout(std::string_view path) noexcept;

/// Incremental tar parser. Each next() call parses from the front of
/// `input`, consuming what it uses, up to one event:
///   kEntry     header() is the next member (GNU long name resolved)
///   kData      data() is the next piece of its body, a view into `input`
///   kEntryEnd  the body is complete (every member gets one, even empty)
///   kEnd       the end-of-archive zero block; later input is ignored
///   kNeedInput `input` is used up; feed the next piece, or call finish()
/// Only regular files and long names have bodies; other members' size
/// fields are ignored. A header split across pieces is copied into one
/// block; bodies never are. Errors are sticky.
class Parser {
 public:
  enum class Event : std::uint8_t { kNeedInput, kEntry, kData, kEntryEnd, kEnd };

  util::Result<Event> next(std::string_view& input);

  /// End of input: kCorrupt when the archive stops inside a header block
  /// or a body. A clean end without the zero-block trailer, or inside the
  /// final padding, is tolerated (some writers truncate).
  util::Status finish() const;

  const Header& header() const noexcept { return header_; }
  std::string_view data() const noexcept { return data_; }

 private:
  enum class State : std::uint8_t {
    kHeader, kLongName, kBody, kPadding, kEnd, kFailed
  };

  util::Error fail(util::Error error) {
    state_ = State::kFailed;
    return error;
  }

  State state_ = State::kHeader;
  Header header_;
  std::string_view data_;
  std::uint64_t remaining_ = 0;  ///< body bytes still to come
  std::size_t padding_ = 0;      ///< padding bytes still to skip
  char block_[kBlockSize] = {};  ///< a header block split across pieces
  std::size_t block_fill_ = 0;
  std::string long_name_;        ///< reused GNU 'L' scratch across entries
  bool have_long_name_ = false;
};

/// One archive member with a non-owning view of its body.
struct Entry {
  Header header;
  std::string_view content;

  bool is_file() const noexcept { return header.type == EntryType::kFile; }
  bool is_directory() const noexcept {
    return header.type == EntryType::kDirectory;
  }
  bool is_symlink() const noexcept {
    return header.type == EntryType::kSymlink;
  }

  bool is_whiteout() const noexcept { return tar::is_whiteout(header.name); }
};

class Reader {
 public:
  /// `archive` must outlive the reader and all returned entries.
  explicit Reader(std::string_view archive) : rest_(archive) {}

  /// Next entry, or std::nullopt at the end-of-archive marker (or at a
  /// clean end of input). GNU 'L' long-name entries are resolved
  /// transparently. Errors are sticky: after a kCorrupt result the reader
  /// refuses to continue.
  util::Result<std::optional<Entry>> next();

  /// Allocation-reusing variant: decodes into `out` (assigning over its
  /// header strings, so a caller looping with one Entry amortizes their
  /// capacity) and returns true, or false at end of archive. Same error
  /// contract as next().
  util::Result<bool> next(Entry& out);

  /// Convenience: iterate all entries, invoking `fn(entry)`. The Entry is
  /// reused between calls — `fn` must copy anything it retains. Stops
  /// early and returns the error on corruption.
  template <typename Fn>
  util::Status for_each(Fn&& fn) {
    Entry entry;
    for (;;) {
      auto got = next(entry);
      if (!got.ok()) return std::move(got).error();
      if (!got.value()) return util::Status::success();
      fn(entry);
    }
  }

 private:
  std::string_view rest_;  ///< the archive not yet parsed
  Parser parser_;
};

}  // namespace dockmine::tar

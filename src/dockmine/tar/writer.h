// In-memory tar archive writer. Produces the byte stream that, gzipped,
// becomes a Docker layer blob. A caller that compresses as it writes drains
// the archive in pieces and streams each file's content in blocks, so
// neither a whole file nor a whole archive is ever held.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "dockmine/tar/header.h"

namespace dockmine::tar {

class Writer {
 public:
  Writer() = default;

  /// Write into `buffer`, cleared first; its capacity is kept, so a caller
  /// that builds many archives reuses one allocation.
  explicit Writer(std::string buffer) : buffer_(std::move(buffer)) {
    buffer_.clear();
  }

  /// Add a regular file. Long paths (>100 bytes) are handled via a GNU 'L'
  /// long-name pseudo entry, like GNU tar and Docker's archive writer.
  /// This is the streamed entry below fed one piece.
  void add_file(std::string_view path, std::string_view content,
                std::uint32_t mode = 0644, std::uint64_t mtime = 0);

  /// Streamed regular file: begin_file() writes the header for `size`
  /// content bytes, the caller appends exactly that many to pending() in
  /// pieces of any size (draining between them as it likes), and
  /// end_file() writes the padding.
  void begin_file(std::string_view path, std::uint64_t size,
                  std::uint32_t mode = 0644, std::uint64_t mtime = 0);
  void end_file();

  /// The bytes written since the last drain. A streamed file's content is
  /// appended here.
  std::string& pending() noexcept { return buffer_; }

  /// Hand pending() to `sink` as one std::string_view, then clear it,
  /// keeping its capacity. finish() returns only what was not drained.
  template <typename Sink>
  void drain(Sink&& sink) {
    std::forward<Sink>(sink)(std::string_view(buffer_));
    drained_ += buffer_.size();
    buffer_.clear();
  }

  void add_directory(std::string_view path, std::uint32_t mode = 0755,
                     std::uint64_t mtime = 0);

  void add_symlink(std::string_view path, std::string_view target,
                   std::uint64_t mtime = 0);

  void add_hardlink(std::string_view path, std::string_view target,
                    std::uint64_t mtime = 0);

  /// Overlay whiteout marker (".wh.<name>") — how aufs/overlay record a
  /// deletion in an upper layer. An empty regular file with a magic name.
  void add_whiteout(std::string_view dir, std::string_view name);

  std::size_t entry_count() const noexcept { return entries_; }

  /// Finish the archive (two zero blocks) and return the bytes not yet
  /// drained: the whole archive if nothing was. The writer is spent
  /// afterwards.
  std::string finish();

  /// Current archive size so far (without the trailer).
  std::uint64_t size_so_far() const noexcept {
    return drained_ + buffer_.size();
  }

 private:
  /// The long-name entry if `header.name` needs one, then the header.
  void add_header(Header header);

  std::string buffer_;
  std::uint64_t drained_ = 0;
  std::uint64_t file_end_ = 0;  ///< where the open streamed file's content ends
  std::size_t entries_ = 0;
  bool in_file_ = false;
  bool finished_ = false;
};

}  // namespace dockmine::tar

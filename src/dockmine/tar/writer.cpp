#include "dockmine/tar/writer.h"

#include <cassert>

namespace dockmine::tar {

void Writer::add_header(Header header) {
  assert(!finished_ && !in_file_);
  if (header.name.size() >= 100) {
    // GNU long-name extension: an 'L' typed entry named "././@LongLink"
    // whose body is the real NUL-terminated path.
    Header long_header;
    long_header.name = "././@LongLink";
    long_header.type = EntryType::kGnuLongName;
    long_header.size = header.name.size() + 1;
    encode_header(long_header, buffer_);
    buffer_.append(header.name.data(), header.name.size());
    buffer_ += '\0';
    buffer_.append(padding_for(header.name.size() + 1), '\0');
    header.name.resize(99);  // truncated stub; real name in 'L'
  }
  encode_header(header, buffer_);
  ++entries_;
}

void Writer::add_file(std::string_view path, std::string_view content,
                      std::uint32_t mode, std::uint64_t mtime) {
  begin_file(path, content.size(), mode, mtime);
  buffer_.append(content.data(), content.size());
  end_file();
}

void Writer::begin_file(std::string_view path, std::uint64_t size,
                        std::uint32_t mode, std::uint64_t mtime) {
  Header header;
  header.name = std::string(path);
  header.mode = mode;
  header.size = size;
  header.mtime = mtime;
  header.type = EntryType::kFile;
  header.uname = "root";
  header.gname = "root";
  add_header(std::move(header));
  in_file_ = true;
  file_end_ = size_so_far() + size;
}

void Writer::end_file() {
  assert(in_file_ && size_so_far() == file_end_);
  in_file_ = false;
  buffer_.append(padding_for(file_end_), '\0');
}

void Writer::add_directory(std::string_view path, std::uint32_t mode,
                           std::uint64_t mtime) {
  Header header;
  header.name = std::string(path);
  if (!header.name.empty() && header.name.back() != '/') header.name += '/';
  header.mode = mode;
  header.mtime = mtime;
  header.type = EntryType::kDirectory;
  header.uname = "root";
  header.gname = "root";
  add_header(std::move(header));
}

void Writer::add_symlink(std::string_view path, std::string_view target,
                         std::uint64_t mtime) {
  Header header;
  header.name = std::string(path);
  header.linkname = std::string(target);
  header.mode = 0777;
  header.mtime = mtime;
  header.type = EntryType::kSymlink;
  add_header(std::move(header));
}

void Writer::add_hardlink(std::string_view path, std::string_view target,
                          std::uint64_t mtime) {
  Header header;
  header.name = std::string(path);
  header.linkname = std::string(target);
  header.mode = 0644;
  header.mtime = mtime;
  header.type = EntryType::kHardLink;
  add_header(std::move(header));
}

void Writer::add_whiteout(std::string_view dir, std::string_view name) {
  std::string path(dir);
  if (!path.empty() && path.back() != '/') path += '/';
  path += ".wh.";
  path += name;
  add_file(path, {}, 0644, 0);
}

std::string Writer::finish() {
  assert(!finished_ && !in_file_);
  finished_ = true;
  buffer_.append(2 * kBlockSize, '\0');
  return std::move(buffer_);
}

}  // namespace dockmine::tar

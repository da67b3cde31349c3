#include "dockmine/analyzer/layer_analyzer.h"

#include <algorithm>
#include <map>

#include "dockmine/compress/gzip.h"
#include "dockmine/digest/sha256.h"
#include "dockmine/filetype/classifier.h"
#include "dockmine/obs/obs.h"
#include "dockmine/tar/reader.h"

namespace dockmine::analyzer {

namespace {

/// Number of path components ("a/b/c" -> 3; trailing '/' ignored).
std::uint32_t path_depth(std::string_view path) noexcept {
  if (!path.empty() && path.back() == '/') path.remove_suffix(1);
  if (path.empty()) return 0;
  std::uint32_t depth = 1;
  for (char c : path) {
    if (c == '/') ++depth;
  }
  return depth;
}

}  // namespace

util::Result<LayerProfile> LayerAnalyzer::analyze_tar(
    std::string_view tar_bytes, const FileVisitor* visitor,
    const DirectoryVisitor* dir_visitor, Timing* timing) const {
  LayerProfile profile;
  profile.cls = tar_bytes.size();  // caller overwrites for gzip blobs

  std::uint64_t explicit_dirs = 0;
  // Per-directory direct-child file counts (paper's directory metadata),
  // keyed without the trailing '/'; "" is the layer root.
  std::map<std::string, std::uint64_t, std::less<>> dir_files;
  auto dir_count = [&dir_files](std::string_view dir) -> std::uint64_t& {
    auto it = dir_files.find(dir);
    if (it == dir_files.end()) it = dir_files.emplace(dir, 0).first;
    return it->second;
  };
  tar::Reader reader(tar_bytes);
  auto status = reader.for_each([&](const tar::Entry& entry) {
    const std::uint32_t depth = path_depth(entry.header.name);
    if (entry.is_directory()) {
      ++explicit_dirs;
      profile.max_depth = std::max(profile.max_depth, std::max(1u, depth));
      if (dir_visitor != nullptr) {
        std::string_view path = entry.header.name;
        while (!path.empty() && path.back() == '/') path.remove_suffix(1);
        dir_count(path);
      }
      return;
    }
    if (!entry.is_file() || entry.is_whiteout()) return;
    ++profile.file_count;
    profile.fls += entry.content.size();
    // Parent directory of a file bounds the depth too.
    if (depth > 1) profile.max_depth = std::max(profile.max_depth, depth - 1);
    if (dir_visitor != nullptr) {
      const std::string_view name = entry.header.name;
      const std::size_t slash = name.rfind('/');
      // Implicit parents count too.
      ++dir_count(slash == std::string_view::npos ? std::string_view{}
                                                  : name.substr(0, slash));
    }
    if (visitor != nullptr) {
      const double classify_start =
          timing != nullptr ? obs::now_ms() : 0.0;
      FileRecord record;
      record.size = entry.content.size();
      record.digest = digest::Digest::of(entry.content);
      record.type = filetype::classify(
          entry.header.name,
          entry.content.substr(
              0, std::max(options_.classify_prefix,
                          static_cast<std::size_t>(262))));
      if (timing != nullptr) {
        timing->classify_ms += obs::now_ms() - classify_start;
      }
      (*visitor)(entry.header.name, record);
    }
  });
  if (!status.ok()) return status.error();
  profile.dir_count = std::max<std::uint64_t>(1, explicit_dirs);
  if (dir_visitor != nullptr) {
    for (const auto& [path, files] : dir_files) {
      DirectoryRecord record;
      record.path = path.empty() ? "." : path;
      record.depth = path.empty() ? 1 : path_depth(path);
      record.file_count = files;
      (*dir_visitor)(record);
    }
  }
  return profile;
}

util::Result<LayerProfile> LayerAnalyzer::analyze_blob(
    std::string_view gzip_blob, const FileVisitor* visitor,
    const DirectoryVisitor* dir_visitor, Timing* timing) const {
  const double gunzip_start = timing != nullptr ? obs::now_ms() : 0.0;
  auto tar_bytes =
      compress::gzip_decompress(gzip_blob, options_.max_uncompressed);
  if (timing != nullptr) timing->gunzip_ms += obs::now_ms() - gunzip_start;
  if (!tar_bytes.ok()) return std::move(tar_bytes).error();
  auto profile = analyze_tar(tar_bytes.value(), visitor, dir_visitor, timing);
  if (!profile.ok()) return profile;
  profile.value().cls = gzip_blob.size();
  profile.value().digest = digest::Digest::of(gzip_blob);
  return profile;
}

}  // namespace dockmine::analyzer

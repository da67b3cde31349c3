#include "dockmine/analyzer/layer_analyzer.h"

#include <algorithm>
#include <map>

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

/// The one walk behind analyze_tar and analyze_blob: folds a tar archive,
/// fed in pieces of any size, into its layer profile. Each regular file's
/// bytes feed an incremental SHA-256 as they arrive, and its first
/// classifier bytes are kept, so no file is held whole.
class LayerWalk {
 public:
  LayerWalk(const LayerAnalyzer::Options& options, const FileVisitor* visitor,
            const DirectoryVisitor* dir_visitor,
            LayerAnalyzer::Timing* timing)
      : classify_bytes_(std::max<std::size_t>(options.classify_prefix, 262)),
        visitor_(visitor),
        dir_visitor_(dir_visitor),
        timing_(timing) {}

  /// Parse the next piece of the archive.
  util::Status feed(std::string_view piece) {
    for (;;) {
      auto event = parser_.next(piece);
      if (!event.ok()) return std::move(event).error();
      switch (event.value()) {
        case tar::Parser::Event::kEntry:
          begin_entry(parser_.header());
          break;
        case tar::Parser::Event::kData:
          if (hashing_) file_data(parser_.data());
          break;
        case tar::Parser::Event::kEntryEnd:
          if (hashing_) end_file(parser_.header());
          break;
        case tar::Parser::Event::kNeedInput:
        case tar::Parser::Event::kEnd:
          return util::Status::success();
      }
    }
  }

  /// End of the archive: check it stopped cleanly, deliver directories,
  /// return the profile (cls/digest left to the caller).
  util::Result<LayerProfile> finish() {
    if (auto s = parser_.finish(); !s.ok()) return s.error();
    profile_.dir_count = std::max<std::uint64_t>(1, explicit_dirs_);
    if (dir_visitor_ != nullptr) {
      for (const auto& [path, files] : dir_files_) {
        DirectoryRecord record;
        record.path = path.empty() ? "." : path;
        record.depth = path.empty() ? 1 : path_depth(path);
        record.file_count = files;
        (*dir_visitor_)(record);
      }
    }
    return profile_;
  }

 private:
  std::uint64_t& dir_count(std::string_view dir) {
    auto it = dir_files_.find(dir);
    if (it == dir_files_.end()) it = dir_files_.emplace(dir, 0).first;
    return it->second;
  }

  void begin_entry(const tar::Header& header) {
    hashing_ = false;
    const std::uint32_t depth = path_depth(header.name);
    if (header.type == tar::EntryType::kDirectory) {
      ++explicit_dirs_;
      profile_.max_depth = std::max(profile_.max_depth, std::max(1u, depth));
      if (dir_visitor_ != nullptr) {
        std::string_view path = header.name;
        while (!path.empty() && path.back() == '/') path.remove_suffix(1);
        dir_count(path);
      }
      return;
    }
    if (header.type != tar::EntryType::kFile || tar::is_whiteout(header.name)) {
      return;
    }
    ++profile_.file_count;
    profile_.fls += header.size;
    // Parent directory of a file bounds the depth too.
    if (depth > 1) profile_.max_depth = std::max(profile_.max_depth, depth - 1);
    if (dir_visitor_ != nullptr) {
      const std::string_view name = header.name;
      const std::size_t slash = name.rfind('/');
      // Implicit parents count too.
      ++dir_count(slash == std::string_view::npos ? std::string_view{}
                                                  : name.substr(0, slash));
    }
    if (visitor_ != nullptr) {
      hashing_ = true;
      sha_.reset();
      prefix_.clear();
    }
  }

  void file_data(std::string_view bytes) {
    const double start = timing_ != nullptr ? obs::now_ms() : 0.0;
    sha_.update(bytes);
    if (prefix_.size() < classify_bytes_) {
      prefix_.append(bytes.substr(0, classify_bytes_ - prefix_.size()));
    }
    if (timing_ != nullptr) timing_->classify_ms += obs::now_ms() - start;
  }

  void end_file(const tar::Header& header) {
    const double start = timing_ != nullptr ? obs::now_ms() : 0.0;
    FileRecord record;
    record.size = header.size;
    record.digest = digest::Digest(sha_.finish());
    record.type = filetype::classify(header.name, prefix_);
    if (timing_ != nullptr) timing_->classify_ms += obs::now_ms() - start;
    (*visitor_)(header.name, record);
  }

  const std::size_t classify_bytes_;
  const FileVisitor* const visitor_;
  const DirectoryVisitor* const dir_visitor_;
  LayerAnalyzer::Timing* const timing_;
  tar::Parser parser_;
  LayerProfile profile_;
  std::uint64_t explicit_dirs_ = 0;
  // Per-directory direct-child file counts (paper's directory metadata),
  // keyed without the trailing '/'; "" is the layer root. Built only for a
  // DirectoryVisitor.
  std::map<std::string, std::uint64_t, std::less<>> dir_files_;
  bool hashing_ = false;  ///< the open entry is a file the visitor gets
  digest::Sha256 sha_;
  std::string prefix_;    ///< its first classify_bytes_ bytes
};

}  // namespace

util::Result<LayerProfile> LayerAnalyzer::analyze_tar(
    std::string_view tar_bytes, const FileVisitor* visitor,
    const DirectoryVisitor* dir_visitor, Timing* timing) const {
  LayerWalk walk(options_, visitor, dir_visitor, timing);
  if (auto s = walk.feed(tar_bytes); !s.ok()) return s.error();
  auto profile = walk.finish();
  if (profile.ok()) profile.value().cls = tar_bytes.size();
  return profile;
}

util::Result<LayerProfile> LayerAnalyzer::analyze_blob(
    std::string_view gzip_blob, const FileVisitor* visitor,
    const DirectoryVisitor* dir_visitor, Timing* timing,
    const digest::Digest* verified_digest) const {
  LayerWalk walk(options_, visitor, dir_visitor, timing);
  compress::GzipReader gzip(gzip_blob, options_.max_uncompressed);
  util::Status walked;
  for (;;) {
    const double gunzip_start = timing != nullptr ? obs::now_ms() : 0.0;
    auto got = gzip.next();
    if (timing != nullptr) timing->gunzip_ms += obs::now_ms() - gunzip_start;
    if (!got.ok()) return std::move(got).error();
    if (got.value().empty()) break;
    // After a tar fault keep decoding: a gzip fault further on wins.
    if (walked.ok()) walked = walk.feed(got.value());
  }
  if (!walked.ok()) return walked.error();
  auto profile = walk.finish();
  if (!profile.ok()) return profile;
  profile.value().cls = gzip_blob.size();
  profile.value().digest = verified_digest != nullptr
                               ? *verified_digest
                               : digest::Digest::of(gzip_blob);
  return profile;
}

}  // namespace dockmine::analyzer

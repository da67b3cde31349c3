// Bytes-mode layer analysis: gunzip the blob, walk the tar, profile every
// entry — the paper's "decompresses and extracts each layer tarball ...
// recursively traverses each subdirectory and obtains its metadata"
// (§III-C), except we stream the archive instead of extracting to disk.
//
// A layer is analyzed in one bounded pass: the walk reads the blob a
// window (kWindowBytes) at a time from the gzip reader's own window, each
// tar header is parsed once it is complete, and file bytes feed an
// incremental SHA-256 and their first `classify_prefix` bytes the type
// classifier. Memory does not follow layer size: no file and no
// decompressed layer is ever held whole (the one exception is a GNU long
// name, capped at tar::kMaxLongName).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "dockmine/analyzer/profile.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/digest/digest.h"
#include "dockmine/util/error.h"

namespace dockmine::analyzer {

/// Receives each regular file as the walk completes it. analyze_blob calls
/// it before the gzip trailer has been checked, so a layer that later fails
/// (CRC, ISIZE, truncation, a tar fault) may already have delivered some
/// records: a caller must hold a layer's records and use them only after
/// analyze_blob returns ok, as AnalysisPipeline and the temporal
/// DeltaAnalyzer do. The path view is valid only during the call.
using FileVisitor = std::function<void(std::string_view path,
                                       const FileRecord& record)>;

/// Per-directory metadata, the third element of the paper's layer profile
/// ("directory name; directory depth; file count", §III-C). `file_count`
/// counts direct children only.
struct DirectoryRecord {
  std::string path;
  std::uint32_t depth = 1;
  std::uint64_t file_count = 0;
};
using DirectoryVisitor = std::function<void(const DirectoryRecord&)>;

class LayerAnalyzer {
 public:
  /// Decompressed bytes walked per step of analyze_blob's pass.
  static constexpr std::size_t kWindowBytes =
      compress::GzipReader::kWindowBytes;

  struct Options {
    /// Cap on the decompressed layer size (bomb guard). The pass holds a
    /// fixed window whatever the layer's size, so this bounds time, not
    /// memory.
    std::uint64_t max_uncompressed = 1ULL << 34;
    /// Bytes of each file examined by the type classifier (libmagic-style).
    std::size_t classify_prefix = 512;
  };

  /// Optional stage-timing breakdown, filled only when a non-null pointer
  /// is passed (the null path performs no clock reads at all).
  struct Timing {
    double gunzip_ms = 0.0;    ///< inside the gzip reader
    double classify_ms = 0.0;  ///< per-file digest + type classification
  };

  LayerAnalyzer() = default;
  explicit LayerAnalyzer(Options options) : options_(options) {}

  /// Analyze a compressed layer blob in one bounded pass. `visitor`
  /// (optional) receives every regular file, under the contract above. The
  /// returned profile's `digest` is the SHA-256 of the blob and `cls` its
  /// size. A caller that has already verified the blob against its digest
  /// passes it as `verified_digest`, and the blob is not hashed again;
  /// without one the pass hashes the blob itself. Faults report as
  /// gunzip-then-walk would: a gzip fault (header, DEFLATE fault,
  /// truncation, CRC, ISIZE, the cap) wins over a tar fault, so after a tar
  /// fault the rest of the blob is still decoded, and discarded, to find
  /// one; the cap stops the pass at once.
  util::Result<LayerProfile> analyze_blob(
      std::string_view gzip_blob, const FileVisitor* visitor = nullptr,
      const DirectoryVisitor* dir_visitor = nullptr, Timing* timing = nullptr,
      const digest::Digest* verified_digest = nullptr) const;

  /// Analyze an already-uncompressed tar archive, walked by the same code
  /// as analyze_blob (cls/digest filled by the caller if known).
  /// `dir_visitor`, when given, receives every directory, explicit or
  /// implied by a file's path, with its direct-child file count, in path
  /// order after the walk (for analyze_blob, after the trailer verified).
  /// Without it no directory map is built.
  util::Result<LayerProfile> analyze_tar(
      std::string_view tar_bytes, const FileVisitor* visitor = nullptr,
      const DirectoryVisitor* dir_visitor = nullptr,
      Timing* timing = nullptr) const;

 private:
  Options options_{};
};

}  // namespace dockmine::analyzer

// In-process Docker Registry V2 service facade.
//
// This is the substitution for live Docker Hub (see DESIGN.md): the
// downloader speaks the same protocol steps against it — resolve a tag to a
// manifest, then fetch each referenced layer blob — and encounters the same
// failure classes (401 for auth-gated repositories, 404 for repositories
// without a `latest` tag). A simple service-time model (per-request base
// cost + per-byte transfer cost) lets benches reason about pull latency,
// including the paper's "store small layers uncompressed" trade-off (§IV-A).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dockmine/blob/store.h"
#include "dockmine/digest/digest.h"
#include "dockmine/registry/manifest.h"
#include "dockmine/registry/model.h"
#include "dockmine/util/error.h"

namespace dockmine::registry {

bool is_official_name(std::string_view name) noexcept;
bool is_valid_repository_name(std::string_view name) noexcept;

/// Read-side registry interface the downloader speaks: resolve a tag to a
/// manifest, fetch a blob. Implemented in-process by Service and over the
/// wire by RemoteRegistry (http_gateway.h).
class Source {
 public:
  virtual ~Source() = default;
  virtual util::Result<std::string> fetch_manifest(
      const std::string& repository, const std::string& tag,
      bool authenticated) = 0;
  virtual util::Result<blob::BlobPtr> fetch_blob(
      const digest::Digest& digest) = 0;
};

/// Simulated service-time model for one request.
struct CostModel {
  double base_ms = 40.0;          ///< connection + request overhead
  double per_mb_ms = 9.0;         ///< transfer cost per (decimal) MB (~110 MB/s)
  /// Client-side decompression cost per MB of *uncompressed* output
  /// (~220 MB/s gunzip) — "compression ... is one of the major sources of
  /// latency when pulling" (paper §IV-A, citing Slacker). With these
  /// constants compression pays off iff the layer's ratio beats
  /// per_mb / (per_mb - decompress) = 2.0 — the paper's small/low-ratio
  /// layers sit below that break-even.
  double decompress_per_mb_ms = 4.5;

  double transfer_ms(std::uint64_t bytes) const noexcept {
    return base_ms + per_mb_ms * static_cast<double>(bytes) / 1e6;
  }
};

struct ServiceStats {
  std::uint64_t manifest_requests = 0;
  std::uint64_t blob_requests = 0;
  std::uint64_t not_found = 0;
  std::uint64_t unauthorized = 0;
  std::uint64_t bytes_served = 0;
  double simulated_ms = 0.0;      ///< sum of modeled service times
};

/// The registry. Thread-safe; writers (the generator pushing images) and
/// readers (the downloader's worker pool) may interleave.
class Service : public Source {
 public:
  explicit Service(CostModel cost = {}) : cost_(cost) {}

  // ---- push side (used by the synthetic hub builder) ----

  /// Create or update a repository entry.
  void put_repository(Repository repo);

  /// Store a manifest: serializes it, stores the JSON as a blob, points
  /// `repo:tag` at it. Returns the manifest digest.
  util::Result<digest::Digest> push_manifest(const Manifest& manifest);

  /// Store a layer/config blob.
  digest::Digest push_blob(std::string content) { return blobs_.put(std::move(content)); }
  util::Status push_blob_with_digest(const digest::Digest& digest,
                                     std::string content) {
    return blobs_.put_with_digest(digest, std::move(content));
  }

  // ---- pull side (Registry V2 verbs) ----

  /// GET /v2/<name>/manifests/<tag>. 401 if the repository requires auth
  /// and no token is presented; 404 for unknown repo or tag.
  util::Result<std::string> get_manifest(const std::string& repository,
                                         const std::string& tag,
                                         bool authenticated = false);

  /// GET /v2/<name>/blobs/<digest>.
  util::Result<blob::BlobPtr> get_blob(const digest::Digest& digest);

  // Source interface.
  util::Result<std::string> fetch_manifest(const std::string& repository,
                                           const std::string& tag,
                                           bool authenticated) override {
    return get_manifest(repository, tag, authenticated);
  }
  util::Result<blob::BlobPtr> fetch_blob(const digest::Digest& digest) override {
    return get_blob(digest);
  }

  /// HEAD equivalent: does the blob exist (size if so)?
  util::Result<std::uint64_t> stat_blob(const digest::Digest& digest) const {
    return blobs_.stat(digest);
  }

  // ---- introspection ----

  std::optional<Repository> find_repository(const std::string& name) const;
  std::vector<std::string> repository_names() const;
  std::size_t repository_count() const;

  ServiceStats stats() const;
  blob::StoreStats blob_stats() const { return blobs_.stats(); }

 private:
  CostModel cost_;
  blob::Store blobs_;
  mutable std::mutex mutex_;  // guards repos_ and stats_
  std::unordered_map<std::string, Repository> repos_;
  ServiceStats stats_;
};

}  // namespace dockmine::registry

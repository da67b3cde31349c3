// Parallel image downloader (paper §III-B, Fig. 2 stage 2).
//
// Speaks the Registry V2 protocol against the service: resolve
// `<repo>:latest` to a manifest, then fetch each referenced layer blob.
// Like the paper's downloader it (a) downloads multiple images
// simultaneously, (b) fetches the layers of an image in parallel, and
// (c) downloads each unique layer only once across the whole run. Failure
// accounting reproduces the paper's two permanent classes: authentication
// required (13% of failures) and missing `latest` tag (87%).
//
// Hardening (the properties that kept the paper's weeks-long crawl alive):
//   * every fetched blob is verified against its manifest digest before it
//     is cached, checkpointed, or delivered — a mismatched transfer is
//     re-fetched once, then reported as a digest failure;
//   * with a Checkpoint attached, completed repositories are skipped on
//     restart and verified layers are reloaded from disk instead of
//     re-transferred;
//   * wrap the source in registry::ResilientSource to add retry/backoff
//     and circuit breaking below this layer (decorators compose:
//     Downloader -> ResilientSource -> FaultySource -> Service).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dockmine/blob/store.h"
#include "dockmine/downloader/checkpoint.h"
#include "dockmine/registry/service.h"
#include "dockmine/util/error.h"

namespace dockmine::downloader {

struct Options {
  std::size_t workers = 4;
  bool authenticated = false;       ///< present a token (disables 401s)
  bool dedup_unique_layers = true;  ///< skip layers fetched earlier
  /// Optional crash/resume record; not owned, must outlive the run.
  Checkpoint* checkpoint = nullptr;
  /// Cooperative cancellation: once set, repositories not yet started are
  /// skipped (counted in DownloadStats::repos_canceled). In-flight
  /// repositories finish normally, so a checkpointed run can be "killed"
  /// mid-run and later resumed without torn per-repo state.
  const std::atomic<bool>* cancel = nullptr;
  /// Re-deliver checkpoint-completed repositories through the sinks (the
  /// manifest is re-fetched; layer bytes come from the checkpoint store,
  /// not the network). A resumed pipeline run needs the full image set to
  /// rebuild its report; a mirror-style run does not — hence opt-in.
  bool deliver_resumed = false;
};

/// A fully fetched image: parsed manifest plus one blob per manifest layer
/// (shared pointers into the unique-layer cache).
struct DownloadedImage {
  registry::Manifest manifest;
  std::vector<blob::BlobPtr> layer_blobs;  ///< aligned with manifest.layers
};

struct DownloadStats {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed_auth = 0;      ///< 401
  std::uint64_t failed_no_tag = 0;    ///< 404 (repo exists, tag missing)
  std::uint64_t failed_missing = 0;   ///< 404 (repo unknown)
  std::uint64_t failed_digest = 0;    ///< blob never hashed to its digest
  std::uint64_t failed_other = 0;
  std::uint64_t repos_resumed = 0;    ///< skipped: checkpoint says complete
  std::uint64_t repos_canceled = 0;   ///< never started: run was canceled
  std::uint64_t layers_fetched = 0;   ///< verified blob transfers
  std::uint64_t layers_deduped = 0;   ///< skipped: already fetched this run
  std::uint64_t layers_resumed = 0;   ///< loaded from the checkpoint store
  std::uint64_t retries = 0;          ///< re-fetches after a digest mismatch
  std::uint64_t bytes_downloaded = 0;  ///< verified transfer bytes (dedup'd
                                       ///< and resumed layers not counted)
  std::uint64_t bytes_discarded = 0;  ///< transfer bytes thrown away because
                                      ///< the blob failed verification
  double wall_seconds = 0.0;

  /// Every attempted repository lands in exactly one bucket.
  std::uint64_t accounted() const noexcept {
    return succeeded + failed_auth + failed_no_tag + failed_missing +
           failed_digest + failed_other + repos_resumed + repos_canceled;
  }
};

/// Count a repository that failed with `error` in exactly one failure
/// bucket of `stats`.
void count_failure(const util::Error& error, DownloadStats& stats);

class Downloader {
 public:
  /// Works against any registry source: the in-process Service, a
  /// RemoteRegistry speaking HTTP, or either behind ResilientSource /
  /// FaultySource decorators.
  Downloader(registry::Source& source, Options options = {})
      : service_(source), options_(options) {}

  /// Download every repository in `repositories`; deliver completed images
  /// through `sink` (invoked under an internal mutex, in completion order).
  /// `sink` may be null when only the statistics matter.
  DownloadStats run(const std::vector<std::string>& repositories,
                    const std::function<void(DownloadedImage&&)>& sink);

  /// Download a single image.
  util::Result<DownloadedImage> download_one(const std::string& repository);

 private:
  util::Result<DownloadedImage> fetch_image(const std::string& repository);

  /// Fetch a layer through the unique-layer cache with single-flight
  /// semantics: concurrent requests for one digest produce one transfer.
  util::Result<blob::BlobPtr> fetch_layer(const digest::Digest& digest);

  /// One verified acquisition from checkpoint or network: transfer, check
  /// the hash, re-fetch once on mismatch, persist to the checkpoint.
  util::Result<blob::BlobPtr> acquire_layer(const digest::Digest& digest);

  registry::Source& service_;
  Options options_;
  std::mutex cache_mutex_;
  std::condition_variable cache_cv_;
  std::unordered_map<digest::Digest, blob::BlobPtr, digest::DigestHash>
      layer_cache_;
  std::unordered_set<digest::Digest, digest::DigestHash> in_flight_;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> bytes_fetched_{0};
  std::atomic<std::uint64_t> blobs_fetched_{0};
  std::atomic<std::uint64_t> bytes_discarded_{0};
  std::atomic<std::uint64_t> digest_retries_{0};
  std::atomic<std::uint64_t> layers_resumed_{0};
};

}  // namespace dockmine::downloader

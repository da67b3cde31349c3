// Bytes mode: turn model layers into real gzipped tar archives and push a
// complete, pullable registry.
//
// Everything the metadata mode describes statistically exists here as real
// bytes: tar members with directory skeletons honoring the layer's
// dir-count/depth spec, per-file content stamped with the right magic
// numbers and compressibility, gzip blobs, content-addressed digests, and
// schema-v2 manifests. The analyzer can then run end-to-end exactly as the
// paper's did: pull, gunzip, untar, profile.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dockmine/compress/gzip.h"
#include "dockmine/registry/service.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/versions.h"
#include "dockmine/util/error.h"

namespace dockmine::tar {
class Writer;
}

namespace dockmine::synth {

class Materializer {
 public:
  /// `threads` gzip threads build the layers push() pushes; 0 means every
  /// core, like JobSpec::threads. The registry push() builds does not
  /// depend on the count.
  explicit Materializer(const HubModel& hub,
                        int gzip_level = compress::kDefaultLevel,
                        std::size_t threads = 0)
      : hub_(hub), gzip_level_(gzip_level), threads_(threads) {}

  /// Layer-id -> (blob digest, blob size) memo shared across pushes so each
  /// unique layer is gzipped exactly once. The temporal epoch driver keeps
  /// one of these alive across epochs: unchanged layer ids reuse their
  /// epoch-0 digests, which is what makes incremental re-analysis possible.
  using BlobCache =
      std::unordered_map<LayerId, std::pair<digest::Digest, std::uint64_t>>;

  /// Uncompressed tar bytes of one layer (deterministic).
  std::string layer_tar(const LayerSpec& spec) const;

  /// Complete gzip blob of one layer: gzip_compress(layer_tar(spec)), built
  /// the way push() builds it, without holding the tar.
  util::Result<std::string> layer_blob(const LayerSpec& spec) const;

  /// Push every repository, manifest, config, and unique layer blob of the
  /// snapshot into `service`: every repository entry first, then each
  /// `latest` image in repository order, through push(). Returns the number
  /// of manifests pushed. The second form leaves every pushed layer in
  /// `blob_cache`.
  util::Result<std::uint64_t> populate(registry::Service& service) const;
  util::Result<std::uint64_t> populate(registry::Service& service,
                                       BlobCache& blob_cache) const;

  /// Push a full version history (see synth/versions.h): every tag chain
  /// becomes pullable ("repo:v1", ..., "repo:latest"). Layers shared with
  /// `latest` are reused; churned layers are materialized fresh. Returns
  /// manifests pushed.
  util::Result<std::uint64_t> populate_versions(
      registry::Service& service, const VersionModel& versions) const;

  /// Push `images` in list order, each as
  /// `hub.repositories()[image.repo_index].name:tag`: the calling thread
  /// pushes each image's layers that `blob_cache` lacks in first-use order,
  /// then its config, then its manifest, and adds those layers to
  /// `blob_cache`. The layers are gzipped ahead of it on the gzip threads,
  /// which are joined before this returns (on error too). Pushing an
  /// existing tag repoints it, exactly how a re-push moves `latest`.
  /// Returns the number of manifests pushed.
  util::Result<std::uint64_t> push(registry::Service& service,
                                   const std::vector<TaggedImage>& images,
                                   BlobCache& blob_cache) const;

 private:
  /// A layer's gzip blob and its digest.
  struct Blob {
    digest::Digest digest;
    std::string bytes;
  };
  struct Builder;      // one gzip thread's reused working memory
  class InOrderBlobs;  // the gzip threads and their in-order window

  /// Every entry of `spec`'s tar, written to `writer`; `on_piece` runs after
  /// each entry and each block of file content, so it may drain the writer.
  void write_tar(const LayerSpec& spec, tar::Writer& writer,
                 const std::function<void()>& on_piece) const;

  /// `spec`'s blob, built in `builder`'s memory; allocates only the blob.
  util::Result<Blob> build_blob(const LayerSpec& spec, Builder& builder) const;

  const HubModel& hub_;
  int gzip_level_;
  std::size_t threads_;
};

}  // namespace dockmine::synth

#include "dockmine/synth/materialize.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "dockmine/compress/gzip.h"
#include "dockmine/json/json.h"
#include "dockmine/tar/writer.h"

namespace dockmine::synth {

namespace {

/// Tar bytes a builder holds before it deflates them. Between two drain
/// checks the writer adds at most one content block (16 KiB) or one entry's
/// headers, so the buffer never outgrows twice this.
constexpr std::size_t kTarPiece = 64 * 1024;

/// How many layers the gzip threads may finish ahead of the push loop. A
/// blob finished early is registry bytes anyway, so this bounds work-ahead,
/// not memory; it only has to be wide enough that a big layer does not stall
/// the threads behind it. A 300-repository populate on 4 threads took
/// 2.6-2.7 s at 4, 1.7 s at 16, 1.1-1.2 s at 64 and 128, with the same peak.
constexpr std::size_t kWindow = 64;

/// The most tar bytes one entry adds besides its content: a header, a GNU
/// long-name header and body (layer paths stay under 512 bytes) and the
/// content's padding.
constexpr std::uint64_t kEntryBound = 4 * tar::kBlockSize;

/// The most a builder reserves for its member up front. Only the paper
/// calibration's multi-GB layers go past it; their members grow as they
/// fill, on the gzip thread.
constexpr std::uint64_t kMaxMemberReserve = 64ull << 20;

/// Directory skeleton honoring (dir_count, max_depth): a spine of nested
/// directories reaching max_depth, remaining directories attached to spine
/// levels round-robin. Returns the path of every directory, spine first.
std::vector<std::string> build_dir_skeleton(const LayerSpec& spec,
                                            util::Rng& rng) {
  std::vector<std::string> dirs;
  const std::uint64_t want = std::max<std::uint64_t>(1, spec.dir_count);
  const std::uint32_t depth = std::max<std::uint32_t>(1, spec.max_depth);
  dirs.reserve(want);

  static constexpr std::string_view kNames[] = {
      "usr", "lib", "share", "etc", "var", "opt", "srv", "bin",
      "app", "src", "data",  "conf", "pkg", "mod", "sub", "dist"};

  // Spine: one directory per depth level.
  std::string spine;
  for (std::uint32_t level = 0; level < depth && dirs.size() < want; ++level) {
    if (!spine.empty()) spine += '/';
    spine += kNames[rng.uniform(std::size(kNames))];
    spine += std::to_string(level);
    dirs.push_back(spine);
  }
  // Extras: siblings attached to random spine prefixes (never deepening).
  std::uint64_t counter = 0;
  while (dirs.size() < want) {
    const std::uint32_t level =
        static_cast<std::uint32_t>(rng.uniform(depth));
    // Parent is the spine prefix at `level` (level 0 => filesystem root).
    std::string parent = level == 0 ? std::string() : dirs[level - 1];
    if (!parent.empty()) parent += '/';
    parent += kNames[rng.uniform(std::size(kNames))];
    parent += 'x';
    parent += std::to_string(counter++);
    dirs.push_back(std::move(parent));
  }
  return dirs;
}

std::string_view basename_view(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

/// Unique member basename: stem-<idx>.ext keeps the extension visible to
/// the classifier while guaranteeing uniqueness within the layer.
std::string unique_basename(std::string_view representative,
                            std::uint64_t index) {
  const std::string_view base = basename_view(representative);
  const std::size_t dot = base.rfind('.');
  if (dot == std::string_view::npos || dot == 0) {
    return std::string(base) + "-" + std::to_string(index);
  }
  return std::string(base.substr(0, dot)) + "-" + std::to_string(index) +
         std::string(base.substr(dot));
}

/// The specs of the layers `images` use that `blob_cache` lacks, each once,
/// in first-use order: the order the push loop meets them.
std::vector<LayerSpec> new_layer_specs(
    const HubModel& hub, const std::vector<TaggedImage>& images,
    const Materializer::BlobCache& blob_cache) {
  std::unordered_set<LayerId> seen;
  std::vector<LayerSpec> specs;
  for (const TaggedImage& tagged : images) {
    for (const LayerId id : tagged.image.layers) {
      if (!blob_cache.contains(id) && seen.insert(id).second) {
        specs.push_back(hub.layer_spec(id));
      }
    }
  }
  return specs;
}

}  // namespace

/// One gzip thread's working memory: the deflate state, the tar piece
/// buffer and the member buffer, sized for the largest layer. The calling
/// thread allocates it before the thread starts and frees it after the
/// join; the thread reuses it for every layer and itself allocates only
/// each finished blob, at its exact size. glibc keeps what a thread frees in
/// that thread's malloc arena, where multi-MB buffers stayed resident after
/// the threads were gone (DESIGN §17).
struct Materializer::Builder {
  Builder(int gzip_level, std::size_t member_capacity) : gzip(gzip_level) {
    tar.reserve(2 * kTarPiece);
    member.reserve(member_capacity);
  }

  compress::GzipWriter gzip;
  std::string tar;
  std::string member;
};

/// Builds the blobs of `specs` on gzip threads and hands them to the push
/// loop in order. A thread starts layer i only once the loop has taken
/// layer i - kWindow, so slot i % kWindow is free. The threads are joined
/// by the destructor.
class Materializer::InOrderBlobs {
 public:
  InOrderBlobs(const Materializer& materializer, std::vector<LayerSpec> specs,
               std::size_t threads)
      : materializer_(materializer), specs_(std::move(specs)), done_(kWindow) {
    if (threads == 0) {
      threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    threads = std::min(threads, specs_.size());
    std::uint64_t largest_tar = 0;
    for (const LayerSpec& spec : specs_) {
      const std::uint64_t entries = spec.file_count + spec.dir_count + 1;
      largest_tar = std::max(largest_tar,
                             materializer_.hub_.layers().sizes(spec).fls +
                                 entries * kEntryBound + 2 * tar::kBlockSize);
    }
    const auto member_capacity = static_cast<std::size_t>(
        std::min(compress::gzip_bound(largest_tar), kMaxMemberReserve));
    for (std::size_t i = 0; i < threads; ++i) {
      builders_.emplace_back(materializer_.gzip_level_, member_capacity);
    }
    try {
      for (Builder& builder : builders_) {
        threads_.emplace_back([this, &builder] { run(builder); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~InOrderBlobs() { stop(); }

  InOrderBlobs(const InOrderBlobs&) = delete;
  InOrderBlobs& operator=(const InOrderBlobs&) = delete;

  /// The next layer's blob; `id` is that layer, as a check on the order.
  util::Result<Blob> next(LayerId id) {
    std::unique_lock lock(mutex_);
    assert(taken_ < specs_.size() && specs_[taken_].id == id);
    (void)id;
    std::optional<util::Result<Blob>>& slot = done_[taken_ % kWindow];
    changed_.wait(lock, [&] { return slot.has_value(); });
    util::Result<Blob> blob = std::move(*slot);
    slot.reset();
    ++taken_;
    lock.unlock();
    changed_.notify_all();
    return blob;
  }

 private:
  void run(Builder& builder) {
    std::unique_lock lock(mutex_);
    for (;;) {
      changed_.wait(lock, [&] {
        return stop_ || started_ == specs_.size() ||
               started_ < taken_ + kWindow;
      });
      if (stop_ || started_ == specs_.size()) return;
      const std::size_t index = started_++;
      lock.unlock();
      util::Result<Blob> blob = build(specs_[index], builder);
      lock.lock();
      done_[index % kWindow].emplace(std::move(blob));
      changed_.notify_all();
    }
  }

  util::Result<Blob> build(const LayerSpec& spec, Builder& builder) const {
    try {
      return materializer_.build_blob(spec, builder);
    } catch (const std::exception& e) {
      return util::internal(std::string("materialize: ") + e.what());
    }
  }

  void stop() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    changed_.notify_all();
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }

  const Materializer& materializer_;
  const std::vector<LayerSpec> specs_;
  std::mutex mutex_;
  /// A blob finished, the loop took one, or the threads must stop.
  std::condition_variable changed_;
  std::vector<std::optional<util::Result<Blob>>> done_;  ///< ring, by mutex_
  std::size_t started_ = 0;  ///< layers a thread has claimed, by mutex_
  std::size_t taken_ = 0;    ///< blobs the loop has taken, by mutex_
  bool stop_ = false;        ///< by mutex_
  std::deque<Builder> builders_;  ///< never moved: each thread holds one
  std::vector<std::thread> threads_;  ///< last: joined before the rest goes
};

void Materializer::write_tar(const LayerSpec& spec, tar::Writer& writer,
                             const std::function<void()>& on_piece) const {
  if (spec.kind == LayerKind::kEmpty) {
    // THE empty diff: an archive with no members. Every image's empty
    // layer has this identical (and therefore shared) blob.
    return;
  }

  std::uint64_t s = hub_.scale().seed ^ (spec.id * 0xa0761d6478bd642fULL);
  util::Rng rng{util::splitmix64(s)};
  if (spec.file_count == 0) {
    // File-less app layers (a RUN mkdir, a chmod, ...): one directory,
    // salted by the layer id so distinct model layers stay distinct blobs
    // under content addressing.
    writer.add_directory("state-" + std::to_string(rng()));
    return;
  }
  const std::vector<std::string> dirs = build_dir_skeleton(spec, rng);
  for (const std::string& dir : dirs) {
    writer.add_directory(dir);
    on_piece();
  }

  const FileModel& files = hub_.files();
  std::uint64_t index = 0;
  hub_.layers().for_each_file(spec, [&](const FileInstance& inst) {
    const std::string rep = files.path_for(inst.content, spec.id ^ index);
    const std::string& dir = dirs[index % dirs.size()];
    writer.begin_file(dir + "/" + unique_basename(rep, index), inst.size);
    files.materialize_into(inst.content, writer.pending(), on_piece);
    writer.end_file();
    on_piece();
    ++index;
  });
}

std::string Materializer::layer_tar(const LayerSpec& spec) const {
  tar::Writer writer;
  write_tar(spec, writer, [] {});
  return writer.finish();
}

util::Result<Materializer::Blob> Materializer::build_blob(
    const LayerSpec& spec, Builder& builder) const {
  builder.member.clear();
  builder.gzip.begin(builder.member);
  tar::Writer writer(std::move(builder.tar));
  const auto deflate_piece = [&](std::string_view piece) {
    builder.gzip.write(piece);
  };
  write_tar(spec, writer, [&] {
    if (writer.pending().size() >= kTarPiece) writer.drain(deflate_piece);
  });
  builder.tar = writer.finish();
  builder.gzip.write(builder.tar);
  if (auto done = builder.gzip.finish(); !done.ok()) return done.error();
  return Blob{digest::Digest::of(builder.member), std::string(builder.member)};
}

util::Result<std::string> Materializer::layer_blob(const LayerSpec& spec) const {
  Builder builder(gzip_level_, 0);
  auto blob = build_blob(spec, builder);
  if (!blob.ok()) return std::move(blob).error();
  return std::move(blob.value().bytes);
}

util::Result<std::uint64_t> Materializer::push(
    registry::Service& service, const std::vector<TaggedImage>& images,
    BlobCache& blob_cache) const {
  InOrderBlobs blobs(*this, new_layer_specs(hub_, images, blob_cache),
                     threads_);
  for (const TaggedImage& tagged : images) {
    registry::Manifest manifest;
    manifest.repository = hub_.repositories()[tagged.image.repo_index].name;
    manifest.tag = tagged.tag;

    for (const LayerId layer_id : tagged.image.layers) {
      auto it = blob_cache.find(layer_id);
      if (it == blob_cache.end()) {
        auto blob = blobs.next(layer_id);
        if (!blob.ok()) return std::move(blob).error();
        Blob& built = blob.value();
        const std::uint64_t size = built.bytes.size();
        auto pushed =
            service.push_blob_with_digest(built.digest, std::move(built.bytes));
        if (!pushed.ok()) return pushed.error();
        it = blob_cache.emplace(layer_id, std::make_pair(built.digest, size))
                 .first;
      }
      manifest.layers.push_back(
          registry::LayerRef{it->second.first, it->second.second});
    }

    // Config blob: platform plus diff ids, like a real image config.
    json::Value config = json::Value::object();
    config.set("architecture", manifest.architecture);
    config.set("os", manifest.os);
    json::Value diff_ids = json::Value::array();
    for (const auto& layer : manifest.layers) {
      diff_ids.push_back(layer.digest.to_string());
    }
    json::Value rootfs = json::Value::object();
    rootfs.set("type", "layers");
    rootfs.set("diff_ids", std::move(diff_ids));
    config.set("rootfs", std::move(rootfs));
    std::string config_body = config.dump();
    manifest.config_size = config_body.size();
    manifest.config_digest = service.push_blob(std::move(config_body));

    auto pushed = service.push_manifest(manifest);
    if (!pushed.ok()) return std::move(pushed).error();
  }
  return std::uint64_t{images.size()};
}

util::Result<std::uint64_t> Materializer::populate(
    registry::Service& service) const {
  BlobCache blob_cache;
  return populate(service, blob_cache);
}

util::Result<std::uint64_t> Materializer::populate(
    registry::Service& service, BlobCache& blob_cache) const {
  std::vector<TaggedImage> latest;
  for (const RepoSpec& repo : hub_.repositories()) {
    registry::Repository entry;
    entry.name = repo.name;
    entry.official = repo.official;
    entry.requires_auth = repo.requires_auth;
    entry.pull_count = repo.pull_count;
    service.put_repository(std::move(entry));
    if (repo.image_index < 0) continue;
    latest.push_back(TaggedImage{
        "latest", hub_.images()[static_cast<std::size_t>(repo.image_index)]});
  }
  return push(service, latest, blob_cache);
}

util::Result<std::uint64_t> Materializer::populate_versions(
    registry::Service& service, const VersionModel& versions) const {
  std::vector<TaggedImage> images;
  for (std::size_t i = 0; i < hub_.repositories().size(); ++i) {
    for (TaggedImage& version : versions.versions_for(i)) {
      images.push_back(std::move(version));
    }
  }
  BlobCache blob_cache;
  return push(service, images, blob_cache);
}

}  // namespace dockmine::synth

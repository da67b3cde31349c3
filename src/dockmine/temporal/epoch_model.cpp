#include "dockmine/temporal/epoch_model.h"

#include <algorithm>

#include "dockmine/util/rng.h"

namespace dockmine::temporal {

bool EpochModel::repushed(std::uint64_t image_index,
                          std::uint32_t epoch) const {
  if (epoch == 0 || epoch > kMaxEpoch) return false;
  // One seeded draw per (image, epoch): independent across both axes so
  // the per-epoch churn set concentrates around repush_fraction without
  // any image being permanently hot or cold.
  std::uint64_t s = hub_.scale().seed ^ (image_index * 0x9ddfea08eb382d69ULL) ^
                    (static_cast<std::uint64_t>(epoch) * 0xa0761d6478bd642fULL);
  util::Rng rng(util::splitmix64(s));
  return rng.chance(config_.repush_fraction);
}

std::uint32_t EpochModel::effective_epoch(std::uint64_t image_index,
                                          std::uint32_t epoch) const {
  for (std::uint32_t e = std::min(epoch, kMaxEpoch); e >= 1; --e) {
    if (repushed(image_index, e)) return e;
  }
  return 0;
}

synth::ImageSpec EpochModel::image_at(std::uint64_t image_index,
                                      std::uint32_t epoch) const {
  const synth::ImageSpec& original = hub_.images().at(image_index);
  const std::uint32_t effective = effective_epoch(image_index, epoch);
  if (effective == 0) return original;

  // A rebuild keeps the lower stack verbatim and replaces the top
  // `churn_layers` with epoch-stamped ids — new digests, deterministic
  // content, base layers untouched (see header: FROM lines rarely move).
  synth::ImageSpec rebuilt;
  rebuilt.repo_index = original.repo_index;
  const std::size_t total = original.layers.size();
  const std::size_t churn =
      std::min<std::size_t>(config_.churn_layers, total);
  const std::size_t keep = total - churn;
  rebuilt.layers.assign(original.layers.begin(),
                        original.layers.begin() + keep);
  for (std::size_t k = 0; k < churn; ++k) {
    rebuilt.layers.push_back(synth::VersionModel::versioned_layer_id(
        image_index, kEpochVersionBase + effective,
        static_cast<std::uint32_t>(k)));
  }
  return rebuilt;
}

std::vector<std::string> EpochModel::churned_repositories(
    std::uint32_t epoch) const {
  std::vector<std::string> churned;
  if (epoch == 0) return churned;
  const auto& repos = hub_.repositories();
  for (std::size_t i = 0; i < repos.size(); ++i) {
    if (repos[i].image_index < 0) continue;
    if (repushed(static_cast<std::uint64_t>(repos[i].image_index), epoch)) {
      churned.push_back(repos[i].name);
    }
  }
  return churned;
}

util::Result<EvolvingRegistry::EpochPush> EvolvingRegistry::advance(
    registry::Service& service) {
  if (epoch_ > EpochModel::kMaxEpoch) {
    return util::Error(util::ErrorCode::kOutOfRange, "epoch limit reached");
  }
  EpochPush push;
  push.epoch = epoch_;
  const synth::HubModel& hub = model_.hub();
  std::vector<synth::TaggedImage> images;  // the churn set's; none at 0
  std::uint64_t layers = 0;
  if (push.epoch == 0) {
    for (const synth::RepoSpec& repo : hub.repositories()) {
      push.repushed.push_back(repo.name);
    }
    for (const synth::ImageSpec& image : hub.images()) {
      layers += image.layers.size();
    }
  } else {
    for (const synth::RepoSpec& repo : hub.repositories()) {
      if (repo.image_index < 0) continue;
      const auto image_index = static_cast<std::uint64_t>(repo.image_index);
      if (!model_.repushed(image_index, push.epoch)) continue;
      push.repushed.push_back(repo.name);
      images.push_back(synth::TaggedImage{
          "latest", model_.image_at(image_index, push.epoch)});
      layers += images.back().image.layers.size();
    }
  }
  const std::size_t cached = blob_cache_.size();
  auto pushed = push.epoch == 0
                    ? materializer_.populate(service, blob_cache_)
                    : materializer_.push(service, images, blob_cache_);
  if (!pushed.ok()) return std::move(pushed).error();
  push.manifests = pushed.value();
  push.layers_materialized = blob_cache_.size() - cached;
  push.layers_reused = layers - push.layers_materialized;
  epoch_ = push.epoch + 1;
  return push;
}

util::Result<std::uint64_t> build_registry_at_epoch(
    const EpochModel& model, std::uint32_t epoch, int gzip_level,
    registry::Service& service) {
  EvolvingRegistry evolving(model, gzip_level);
  std::uint64_t manifests = 0;
  for (std::uint32_t e = 0; e <= epoch; ++e) {
    auto push = evolving.advance(service);
    if (!push.ok()) return std::move(push).error();
    manifests += push.value().manifests;
  }
  return manifests;
}

}  // namespace dockmine::temporal

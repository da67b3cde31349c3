// Chaos and resilience suite: fault injection, retry/backoff, circuit
// breaker, digest verification, and checkpoint/resume. The headline test
// asserts the property the whole subsystem exists for — under seeded
// transient faults and blob corruption, the downloader converges to exactly
// the fault-free outcome, delivering zero corrupt bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "dockmine/blob/disk_store.h"
#include "dockmine/core/report.h"
#include "dockmine/crawler/crawler.h"
#include "dockmine/downloader/downloader.h"
#include "dockmine/http/client.h"
#include "dockmine/http/server.h"
#include "dockmine/registry/faults.h"
#include "dockmine/registry/resilient.h"
#include "dockmine/synth/generator.h"
#include "dockmine/synth/materialize.h"

namespace dockmine {
namespace {

// One materialized registry shared by every test in this binary.
struct Fixture {
  static Fixture& get() {
    static Fixture instance;
    return instance;
  }
  synth::HubModel hub;
  registry::Service service;
  std::vector<std::string> all_repos;

 private:
  Fixture() : hub(synth::Calibration::light(), synth::Scale{150, 77}) {
    synth::Materializer materializer(hub, /*gzip_level=*/1);
    auto pushed = materializer.populate(service);
    EXPECT_TRUE(pushed.ok());
    for (const auto& repo : hub.repositories()) all_repos.push_back(repo.name);
  }
};

/// Virtual clock: sleep() advances now() instantly, so backoff schedules
/// and breaker cooldowns run in microseconds of real time.
registry::TimeSource virtual_time(std::shared_ptr<std::atomic<double>> clock) {
  return registry::TimeSource{
      [clock] { return clock->load(); },
      [clock](double ms) { clock->fetch_add(ms); }};
}

// ---------- backoff ----------

TEST(BackoffTest, DecorrelatedJitterIsDeterministicAndBounded) {
  util::Rng rng_a(42), rng_b(42);
  double prev_a = 0.0, prev_b = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double a = registry::decorrelated_jitter(10.0, 500.0, prev_a, rng_a);
    const double b = registry::decorrelated_jitter(10.0, 500.0, prev_b, rng_b);
    EXPECT_EQ(a, b);  // same seed, same schedule — exactly
    EXPECT_GE(a, 10.0);
    EXPECT_LE(a, 500.0);
    // Decorrelated jitter growth bound: next <= max(base, 3 * prev).
    const double anchor = prev_a > 0.0 ? prev_a : 10.0;
    EXPECT_LE(a, std::max(10.0, 3.0 * anchor) + 1e-9);
    prev_a = a;
    prev_b = b;
  }
}

TEST(BackoffTest, CapClampsTheSchedule) {
  util::Rng rng(7);
  double prev = 0.0;
  double peak = 0.0;
  for (int i = 0; i < 64; ++i) {
    prev = registry::decorrelated_jitter(50.0, 120.0, prev, rng);
    peak = std::max(peak, prev);
  }
  EXPECT_LE(peak, 120.0);
  EXPECT_GT(peak, 50.0);  // the schedule did leave the base
}

// ---------- circuit breaker ----------

TEST(CircuitBreakerTest, OpensHalfOpensAndCloses) {
  registry::BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.cooldown_ms = 100.0;
  policy.close_threshold = 2;
  registry::CircuitBreaker breaker(policy);

  using State = registry::CircuitBreaker::State;
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_FALSE(breaker.on_failure(0.0));
  EXPECT_FALSE(breaker.on_failure(1.0));
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_TRUE(breaker.on_failure(2.0));  // third consecutive: opens
  EXPECT_EQ(breaker.state(), State::kOpen);

  EXPECT_FALSE(breaker.allow(50.0));   // still cooling down
  EXPECT_TRUE(breaker.allow(103.0));   // cooldown elapsed: half-open probe
  EXPECT_EQ(breaker.state(), State::kHalfOpen);

  EXPECT_FALSE(breaker.on_success());  // needs close_threshold successes
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_TRUE(breaker.on_success());
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  registry::BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.cooldown_ms = 10.0;
  registry::CircuitBreaker breaker(policy);

  using State = registry::CircuitBreaker::State;
  EXPECT_TRUE(breaker.on_failure(0.0));
  EXPECT_TRUE(breaker.allow(11.0));
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_TRUE(breaker.on_failure(11.0));  // probe failed: re-opens
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_FALSE(breaker.allow(12.0));
  EXPECT_TRUE(breaker.allow(22.0));
}

// ---------- fault injector ----------

TEST(FaultInjectorTest, ScriptModeFailsExactlyFirstN) {
  Fixture& fx = Fixture::get();
  std::string repo;
  for (const auto& spec : fx.hub.repositories()) {
    if (spec.has_latest && !spec.requires_auth) {
      repo = spec.name;
      break;
    }
  }
  ASSERT_FALSE(repo.empty());

  registry::FaultySource faulty(fx.service);  // zero probabilities
  faulty.injector().fail_next(repo + ":latest", 2,
                              util::ErrorCode::kUnavailable);
  auto first = faulty.fetch_manifest(repo, "latest", false);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code(), util::ErrorCode::kUnavailable);
  auto second = faulty.fetch_manifest(repo, "latest", false);
  ASSERT_FALSE(second.ok());
  auto third = faulty.fetch_manifest(repo, "latest", false);
  EXPECT_TRUE(third.ok());
  EXPECT_EQ(faulty.stats().injected_scripted, 2u);
  EXPECT_EQ(faulty.injector().attempts(repo + ":latest"), 3u);
}

TEST(FaultInjectorTest, SameSeedSameFaultSequencePerKey) {
  registry::FaultSpec spec;
  spec.seed = 99;
  spec.p_unavailable = 0.4;
  spec.p_reset = 0.2;
  registry::FaultInjector a(spec), b(spec);
  for (int i = 0; i < 200; ++i) {
    auto da = a.next("some:key", false);
    auto db = b.next("some:key", false);
    EXPECT_EQ(da.fail, db.fail);
    if (da.fail) EXPECT_EQ(da.error.code(), db.error.code());
  }
  const auto sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.injected_unavailable, sb.injected_unavailable);
  EXPECT_EQ(sa.injected_reset, sb.injected_reset);
  EXPECT_GT(sa.injected_unavailable + sa.injected_reset, 0u);
}

// ---------- resilient source ----------

TEST(ResilientSourceTest, RetriesTransientsToSuccess) {
  Fixture& fx = Fixture::get();
  std::string repo;
  for (const auto& spec : fx.hub.repositories()) {
    if (spec.has_latest && !spec.requires_auth) {
      repo = spec.name;
      break;
    }
  }
  registry::FaultySource faulty(fx.service);
  faulty.injector().fail_next(repo + ":latest", 2,
                              util::ErrorCode::kUnavailable);

  auto clock = std::make_shared<std::atomic<double>>(0.0);
  registry::RetryPolicy retry;
  retry.max_attempts = 5;
  retry.base_delay_ms = 10.0;
  registry::ResilientSource resilient(faulty, retry, {}, /*seed=*/1,
                                      virtual_time(clock));
  auto manifest = resilient.fetch_manifest(repo, "latest", false);
  EXPECT_TRUE(manifest.ok());
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_GE(stats.backoff_ms, 2 * retry.base_delay_ms);
  EXPECT_GT(clock->load(), 0.0);  // backoff ran on the virtual clock
}

TEST(ResilientSourceTest, PermanentErrorsAreNotRetried) {
  Fixture& fx = Fixture::get();
  registry::FaultySource faulty(fx.service);
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  registry::ResilientSource resilient(faulty, {}, {}, 1, virtual_time(clock));
  auto missing = resilient.fetch_manifest("ghost/none", "latest", false);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), util::ErrorCode::kNotFound);
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.permanent_failures, 1u);
  EXPECT_EQ(clock->load(), 0.0);  // no backoff for a permanent answer
}

TEST(ResilientSourceTest, GivesUpAfterAttemptLimit) {
  Fixture& fx = Fixture::get();
  std::string repo = fx.all_repos.front();
  registry::FaultySource faulty(fx.service);
  faulty.injector().fail_next(repo + ":latest", 100,
                              util::ErrorCode::kReset);
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  registry::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay_ms = 1.0;
  registry::ResilientSource resilient(faulty, retry, {}, 1,
                                      virtual_time(clock));
  auto result = resilient.fetch_manifest(repo, "latest", false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), util::ErrorCode::kReset);
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.attempts_exhausted, 1u);
}

TEST(ResilientSourceTest, RetryBudgetBoundsTotalRetries) {
  Fixture& fx = Fixture::get();
  registry::FaultySource faulty(fx.service);
  for (int i = 0; i < 4; ++i) {
    faulty.injector().fail_next("repo" + std::to_string(i) + ":latest", 100,
                                util::ErrorCode::kUnavailable);
  }
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  registry::RetryPolicy retry;
  retry.max_attempts = 10;
  retry.base_delay_ms = 1.0;
  retry.retry_budget = 5;  // far fewer than 4 requests * 9 retries
  registry::ResilientSource resilient(faulty, retry, {}, 1,
                                      virtual_time(clock));
  for (int i = 0; i < 4; ++i) {
    auto result =
        resilient.fetch_manifest("repo" + std::to_string(i), "latest", false);
    EXPECT_FALSE(result.ok());
  }
  const auto stats = resilient.stats();
  EXPECT_EQ(stats.retries, 5u);  // budget spent to the cent, never beyond
  EXPECT_GT(stats.budget_exhausted, 0u);
}

TEST(ResilientSourceTest, BreakerOpensRejectsAndRecovers) {
  Fixture& fx = Fixture::get();
  std::string repo;
  for (const auto& spec : fx.hub.repositories()) {
    if (spec.has_latest && !spec.requires_auth) {
      repo = spec.name;
      break;
    }
  }
  registry::FaultySource faulty(fx.service);
  faulty.injector().fail_next(repo + ":latest", 2, util::ErrorCode::kReset);

  auto clock = std::make_shared<std::atomic<double>>(0.0);
  registry::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_delay_ms = 1.0;
  retry.max_delay_ms = 2.0;
  registry::BreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown_ms = 10'000.0;  // far beyond any backoff sleep
  registry::ResilientSource resilient(faulty, retry, breaker, 1,
                                      virtual_time(clock));

  // Request 1: two transient failures trip the breaker.
  EXPECT_FALSE(resilient.fetch_manifest(repo, "latest", false).ok());
  EXPECT_EQ(resilient.breaker_state("repo/" + repo),
            registry::CircuitBreaker::State::kOpen);
  EXPECT_EQ(resilient.stats().breaker_opens, 1u);

  // Request 2: fails fast — the upstream is never touched while open.
  const auto attempts_before = resilient.stats().attempts;
  auto rejected = resilient.fetch_manifest(repo, "latest", false);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(resilient.stats().attempts, attempts_before);
  EXPECT_GT(resilient.stats().breaker_rejections, 0u);

  // Cooldown passes (virtual time): half-open probe succeeds and closes.
  clock->fetch_add(20'000.0);
  EXPECT_TRUE(resilient.fetch_manifest(repo, "latest", false).ok());
  EXPECT_EQ(resilient.breaker_state("repo/" + repo),
            registry::CircuitBreaker::State::kClosed);
  EXPECT_EQ(resilient.stats().breaker_closes, 1u);
}

// ---------- the chaos test ----------

struct ChaosOutcome {
  downloader::DownloadStats download;
  registry::ResilienceStats resilience;
  registry::FaultStats faults;
  std::uint64_t delivered_blobs = 0;
  std::uint64_t digest_mismatches_delivered = 0;
};

ChaosOutcome run_chaos(std::uint64_t seed) {
  Fixture& fx = Fixture::get();
  registry::FaultSpec spec;
  spec.seed = seed;
  spec.p_unavailable = 0.15;  // ~23.5% transient fault rate overall
  spec.p_reset = 0.10;
  spec.p_slow = 0.05;
  spec.p_truncate = 0.005;  // 1% corruption overall, caught by verification
  spec.p_bitflip = 0.005;
  registry::FaultySource faulty(fx.service, spec);

  auto clock = std::make_shared<std::atomic<double>>(0.0);
  registry::RetryPolicy retry;
  retry.max_attempts = 8;
  retry.base_delay_ms = 1.0;
  retry.max_delay_ms = 50.0;
  registry::BreakerPolicy breaker;
  breaker.failure_threshold = 12;  // a 23% storm must not trip it
  breaker.cooldown_ms = 100.0;
  registry::ResilientSource resilient(faulty, retry, breaker, seed,
                                      virtual_time(clock));

  downloader::Options options;
  options.workers = 4;
  downloader::Downloader downloader(resilient, options);

  ChaosOutcome outcome;
  outcome.download = downloader.run(
      fx.all_repos, [&](downloader::DownloadedImage&& image) {
        for (std::size_t i = 0; i < image.manifest.layers.size(); ++i) {
          ++outcome.delivered_blobs;
          if (digest::Digest::of(*image.layer_blobs[i]) !=
              image.manifest.layers[i].digest) {
            ++outcome.digest_mismatches_delivered;
          }
        }
      });
  outcome.resilience = resilient.stats();
  outcome.faults = faulty.stats();
  return outcome;
}

TEST(ChaosTest, ConvergesToFaultFreeBaselineWithZeroCorruptDeliveries) {
  Fixture& fx = Fixture::get();

  // Fault-free baseline on a twin service (clean transfer stats).
  downloader::Options options;
  options.workers = 4;
  downloader::Downloader baseline_downloader(fx.service, options);
  const auto baseline = baseline_downloader.run(fx.all_repos, nullptr);
  ASSERT_EQ(baseline.succeeded, fx.hub.downloadable_images());

  const ChaosOutcome chaos = run_chaos(/*seed=*/7);

  // The faults really happened...
  EXPECT_GT(chaos.faults.total_injected(), 0u);
  EXPECT_GT(chaos.faults.injected_truncate + chaos.faults.injected_bitflip, 0u);
  EXPECT_GT(chaos.resilience.retries, 0u);

  // ...and the outcome is byte-for-byte the baseline's.
  EXPECT_EQ(chaos.download.succeeded, baseline.succeeded);
  EXPECT_EQ(chaos.download.failed_auth, baseline.failed_auth);
  EXPECT_EQ(chaos.download.failed_no_tag, baseline.failed_no_tag);
  EXPECT_EQ(chaos.download.failed_missing, baseline.failed_missing);
  EXPECT_EQ(chaos.download.failed_digest, 0u);
  EXPECT_EQ(chaos.download.failed_other, 0u);
  EXPECT_EQ(chaos.download.layers_fetched, baseline.layers_fetched);
  EXPECT_EQ(chaos.download.layers_deduped, baseline.layers_deduped);
  EXPECT_EQ(chaos.download.bytes_downloaded, baseline.bytes_downloaded);
  EXPECT_EQ(chaos.download.accounted(), chaos.download.attempted);

  // Digest verification caught every corrupt transfer before delivery.
  EXPECT_GT(chaos.delivered_blobs, 0u);
  EXPECT_EQ(chaos.digest_mismatches_delivered, 0u);
  EXPECT_GT(chaos.download.retries + chaos.download.bytes_discarded, 0u);
}

TEST(ChaosTest, SameSeedProducesIdenticalResilienceStats) {
  const ChaosOutcome a = run_chaos(/*seed=*/21);
  const ChaosOutcome b = run_chaos(/*seed=*/21);
  EXPECT_TRUE(a.resilience == b.resilience);
  EXPECT_EQ(a.download.succeeded, b.download.succeeded);
  EXPECT_EQ(a.download.bytes_downloaded, b.download.bytes_downloaded);
  EXPECT_EQ(a.download.retries, b.download.retries);
  EXPECT_EQ(a.faults.total_injected(), b.faults.total_injected());
}

// ---------- checkpoint / resume ----------

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(CheckpointTest, ResumeSkipsCompletedWorkWithoutRefetching) {
  Fixture& fx = Fixture::get();
  TempDir dir("dockmine_resilience_ckpt");

  std::vector<std::string> downloadable;
  for (const auto& spec : fx.hub.repositories()) {
    if (spec.has_latest && !spec.requires_auth) downloadable.push_back(spec.name);
  }
  ASSERT_GT(downloadable.size(), 4u);
  const std::vector<std::string> first_half(
      downloadable.begin(), downloadable.begin() + downloadable.size() / 2);

  // Phase 1: download half the repositories, checkpointing as we go.
  std::uint64_t phase1_succeeded = 0;
  {
    auto checkpoint = downloader::Checkpoint::open(dir.path);
    ASSERT_TRUE(checkpoint.ok());
    downloader::Options options;
    options.workers = 4;
    options.checkpoint = &checkpoint.value();
    downloader::Downloader phase1(fx.service, options);
    const auto stats = phase1.run(first_half, nullptr);
    phase1_succeeded = stats.succeeded;
    EXPECT_EQ(stats.succeeded, first_half.size());
    EXPECT_EQ(stats.repos_resumed, 0u);
    EXPECT_EQ(checkpoint.value().repos_completed(), first_half.size());
    EXPECT_GT(checkpoint.value().layers_recorded(), 0u);
  }  // "kill": downloader and checkpoint handle dropped

  // Phase 2: a fresh process resumes over the full repository list.
  const std::uint64_t blob_requests_before = fx.service.stats().blob_requests;
  auto checkpoint = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint.value().repos_completed(), first_half.size());

  downloader::Options options;
  options.workers = 4;
  options.checkpoint = &checkpoint.value();
  downloader::Downloader phase2(fx.service, options);
  const auto stats = phase2.run(downloadable, nullptr);

  EXPECT_EQ(stats.repos_resumed, phase1_succeeded);
  EXPECT_EQ(stats.succeeded, downloadable.size() - phase1_succeeded);
  EXPECT_EQ(stats.accounted(), stats.attempted);
  // Layers shared with phase-1 images were reloaded from the checkpoint...
  EXPECT_GT(stats.layers_resumed, 0u);
  // ...and only genuinely new layers hit the registry.
  const std::uint64_t blob_requests_made =
      fx.service.stats().blob_requests - blob_requests_before;
  EXPECT_EQ(blob_requests_made, stats.layers_fetched);
}

TEST(CheckpointTest, DamagedCheckpointedLayerIsFetchedAgain) {
  // The analyzer takes each delivered blob's manifest digest as its own, so
  // a layer read back from the checkpoint must be verified again: one
  // damaged on disk is fetched from the registry instead.
  Fixture& fx = Fixture::get();
  TempDir dir("dockmine_resilience_ckpt_damaged");

  std::vector<std::string> downloadable;
  for (const auto& spec : fx.hub.repositories()) {
    if (spec.has_latest && !spec.requires_auth) downloadable.push_back(spec.name);
  }
  ASSERT_GT(downloadable.size(), 4u);
  const std::vector<std::string> first_half(
      downloadable.begin(), downloadable.begin() + downloadable.size() / 2);
  {
    auto checkpoint = downloader::Checkpoint::open(dir.path);
    ASSERT_TRUE(checkpoint.ok());
    downloader::Options options;
    options.workers = 4;
    options.checkpoint = &checkpoint.value();
    downloader::Downloader phase1(fx.service, options);
    EXPECT_EQ(phase1.run(first_half, nullptr).succeeded, first_half.size());
  }
  int damaged = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir.path / "blobs")) {
    if (entry.is_regular_file() && entry.path().filename() == "data") {
      std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
          << "damaged on disk";
      ++damaged;
    }
  }
  ASSERT_GT(damaged, 0);

  auto checkpoint = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(checkpoint.ok());
  downloader::Options options;
  options.workers = 4;
  options.checkpoint = &checkpoint.value();
  downloader::Downloader phase2(fx.service, options);
  std::size_t layers_delivered = 0;
  const auto stats = phase2.run(downloadable, [&](downloader::DownloadedImage&&
                                                      image) {
    for (std::size_t i = 0; i < image.manifest.layers.size(); ++i) {
      ASSERT_NE(image.layer_blobs[i], nullptr);
      EXPECT_EQ(digest::Digest::of(*image.layer_blobs[i]),
                image.manifest.layers[i].digest);
      ++layers_delivered;
    }
  });
  EXPECT_EQ(stats.succeeded, downloadable.size() - first_half.size());
  EXPECT_EQ(stats.layers_resumed, 0u);
  EXPECT_GT(layers_delivered, 0u);
}

TEST(CheckpointTest, TornTrailingJournalLineIsDropped) {
  TempDir dir("dockmine_resilience_torn");
  {
    auto checkpoint = downloader::Checkpoint::open(dir.path);
    ASSERT_TRUE(checkpoint.ok());
    ASSERT_TRUE(checkpoint.value().mark_repo_done("alice/app").ok());
    ASSERT_TRUE(
        checkpoint.value().put_layer(digest::Digest::of("bytes"), "bytes").ok());
  }
  {
    // A kill mid-append leaves a torn line; a kill between blob write and
    // journal append leaves a layer record with no blob. Simulate both.
    std::ofstream journal(dir.path / "completed.log", std::ios::app);
    journal << "layer sha256:"
            << "00000000000000000000000000000000"
            << "00000000000000000000000000000000\n";  // blob never written
    journal << "repo torn/entr";                      // no newline: torn
  }
  auto checkpoint = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_TRUE(checkpoint.value().repo_done("alice/app"));
  EXPECT_TRUE(checkpoint.value().has_layer(digest::Digest::of("bytes")));
  EXPECT_EQ(checkpoint.value().repos_completed(), 1u);
  EXPECT_EQ(checkpoint.value().layers_recorded(), 1u);
  EXPECT_FALSE(checkpoint.value().repo_done("torn/entr"));
}

TEST(CheckpointTest, EmptyJournalIsACleanSlate) {
  TempDir dir("dockmine_resilience_empty");
  std::filesystem::create_directories(dir.path);
  { std::ofstream journal(dir.path / "completed.log"); }  // zero bytes

  auto checkpoint = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint.value().repos_completed(), 0u);
  EXPECT_EQ(checkpoint.value().layers_recorded(), 0u);
  // The journal is still appendable after the empty open.
  ASSERT_TRUE(checkpoint.value().mark_repo_done("fresh/start").ok());
  auto reopened = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().repo_done("fresh/start"));
}

TEST(CheckpointTest, JournalWithOnlyATornLineIsDiscardedAndSealed) {
  TempDir dir("dockmine_resilience_torn_only");
  std::filesystem::create_directories(dir.path);
  {
    std::ofstream journal(dir.path / "completed.log");
    journal << "repo torn/entr";  // no newline: the kill landed mid-append
  }

  auto checkpoint = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint.value().repos_completed(), 0u);
  EXPECT_FALSE(checkpoint.value().repo_done("torn/entr"));

  // The torn fragment was truncated away, so the next append starts a clean
  // line instead of fusing onto the fragment ("repo torn/entrrepo x").
  ASSERT_TRUE(checkpoint.value().mark_repo_done("alice/app").ok());
  auto reopened = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().repo_done("alice/app"));
  EXPECT_FALSE(reopened.value().repo_done("torn/entr"));
  EXPECT_EQ(reopened.value().repos_completed(), 1u);
}

TEST(CheckpointTest, OrphanBlobWithoutJournalRecordIsInvisible) {
  TempDir dir("dockmine_resilience_orphan");
  const std::string content = "orphaned layer bytes";
  const digest::Digest digest = digest::Digest::of(content);
  {
    // A kill between DiskStore write and journal append leaves exactly
    // this: a blob on disk, no journal record.
    auto store = blob::DiskStore::open(dir.path / "blobs");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().put_with_digest(digest, content).ok());
  }

  auto checkpoint = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_FALSE(checkpoint.value().has_layer(digest));
  EXPECT_EQ(checkpoint.value().layers_recorded(), 0u);

  // Re-admitting the layer through the front door records it properly.
  ASSERT_TRUE(checkpoint.value().put_layer(digest, content).ok());
  EXPECT_TRUE(checkpoint.value().has_layer(digest));
  auto restored = checkpoint.value().layer(digest);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored.value(), content);
  auto reopened = downloader::Checkpoint::open(dir.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().has_layer(digest));
}

TEST(CheckpointTest, DoubleResumeAfterTwoCrashesAccountsEveryRepo) {
  Fixture& fx = Fixture::get();
  TempDir dir("dockmine_resilience_double");

  std::vector<std::string> downloadable;
  for (const auto& spec : fx.hub.repositories()) {
    if (spec.has_latest && !spec.requires_auth) downloadable.push_back(spec.name);
  }
  ASSERT_GT(downloadable.size(), 6u);
  const std::size_t third = downloadable.size() / 3;
  const std::vector<std::string> first_third(downloadable.begin(),
                                             downloadable.begin() + third);
  const std::vector<std::string> two_thirds(
      downloadable.begin(), downloadable.begin() + 2 * third);

  auto run_phase = [&](const std::vector<std::string>& repos) {
    auto checkpoint = downloader::Checkpoint::open(dir.path);
    EXPECT_TRUE(checkpoint.ok());
    downloader::Options options;
    options.workers = 4;
    options.checkpoint = &checkpoint.value();
    downloader::Downloader phase(fx.service, options);
    return phase.run(repos, nullptr);
  };  // each return is a "crash": handles dropped mid-flight state

  // Crash 1 happened after the first third...
  const auto phase1 = run_phase(first_third);
  EXPECT_EQ(phase1.succeeded, first_third.size());
  {
    // ...tearing the journal mid-append.
    std::ofstream journal(dir.path / "completed.log", std::ios::app);
    journal << "repo torn/mid-cras";  // no newline
  }

  // Crash 2 happened after two thirds...
  const auto phase2 = run_phase(two_thirds);
  EXPECT_EQ(phase2.repos_resumed, phase1.succeeded);
  EXPECT_EQ(phase2.succeeded, two_thirds.size() - first_third.size());
  {
    // ...stranding an orphan blob with no journal record.
    auto store = blob::DiskStore::open(dir.path / "blobs");
    ASSERT_TRUE(store.ok());
    const std::string orphan = "stranded by the second crash";
    ASSERT_TRUE(
        store.value().put_with_digest(digest::Digest::of(orphan), orphan).ok());
  }

  // The third resume completes the workload with exact accounting.
  const std::uint64_t blob_requests_before = fx.service.stats().blob_requests;
  const auto phase3 = run_phase(downloadable);
  EXPECT_EQ(phase3.repos_resumed, phase1.succeeded + phase2.succeeded);
  EXPECT_EQ(phase3.succeeded, downloadable.size() - 2 * third);
  EXPECT_EQ(phase3.accounted(), phase3.attempted);
  // Only genuinely new layers hit the registry; resumed layers came from
  // the checkpoint store despite the two crashes in between.
  const std::uint64_t blob_requests_made =
      fx.service.stats().blob_requests - blob_requests_before;
  EXPECT_EQ(blob_requests_made, phase3.layers_fetched);
  EXPECT_GT(phase3.layers_resumed, 0u);
}

// ---------- crawler retries ----------

TEST(CrawlerResilienceTest, RetriesTransientPagesToFullCoverage) {
  Fixture& fx = Fixture::get();
  registry::SearchIndex index(fx.service,
                              synth::Calibration::kSearchDuplicateFactor, 5);
  registry::FaultSpec spec;
  spec.seed = 3;
  spec.p_unavailable = 0.3;
  registry::FaultySearchBackend faulty(index, spec);
  crawler::Crawler crawler(faulty, /*page_size=*/37, /*max_page_attempts=*/8);
  const auto result = crawler.crawl_all();

  EXPECT_EQ(result.repositories.size(), fx.hub.repositories().size());
  EXPECT_GT(result.pages_retried, 0u);
  EXPECT_EQ(result.pages_failed, 0u);
}

TEST(CrawlerResilienceTest, PermanentPageErrorAbortsVisibly) {
  Fixture& fx = Fixture::get();
  registry::SearchIndex index(fx.service, 1.0, 5);
  registry::FaultySearchBackend faulty(index);
  faulty.injector().fail_next("page:/:0", 1, util::ErrorCode::kNotFound);
  crawler::Crawler crawler(faulty, 37);
  const auto result = crawler.crawl("/");
  EXPECT_EQ(result.pages_failed, 1u);
  EXPECT_EQ(result.pages_fetched, 0u);
  EXPECT_TRUE(result.repositories.empty());
}

TEST(CrawlerResilienceTest, ScriptedTransientCostsExactRetries) {
  Fixture& fx = Fixture::get();
  registry::SearchIndex index(fx.service, 1.0, 5);
  registry::FaultySearchBackend faulty(index);
  faulty.injector().fail_next("page:/:0", 2, util::ErrorCode::kUnavailable);
  crawler::Crawler crawler(faulty, 37, /*max_page_attempts=*/4);
  const auto result = crawler.crawl("/");
  EXPECT_EQ(result.pages_retried, 2u);
  EXPECT_EQ(result.pages_failed, 0u);
  EXPECT_FALSE(result.repositories.empty());
}

// ---------- http timeout (gateway-path composition) ----------

TEST(HttpTimeoutTest, SilentServerYieldsRetryableTimeout) {
  http::Listener listener;
  ASSERT_TRUE(listener.bind_loopback().ok());
  std::atomic<bool> stop{false};
  std::thread sink([&] {
    // Accept and hold the connection open without ever responding.
    auto connection = listener.accept_one();
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  http::ClientOptions options;
  options.timeout_ms = 100;
  http::Client client(listener.port(), options);
  http::Request request;
  request.method = "GET";
  request.target = "/v2/";
  request.headers.emplace_back("Host", "127.0.0.1");
  auto response = client.request(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code(), util::ErrorCode::kTimeout);
  EXPECT_TRUE(response.error().retryable());

  stop.store(true);
  sink.join();  // before close(): the sink thread touched the listener
  listener.close();
}

// ---------- report surfacing ----------

TEST(ReportTest, ResilienceAndDownloadPanelsRender) {
  downloader::DownloadStats download;
  download.attempted = 10;
  download.succeeded = 8;
  download.failed_digest = 1;
  download.retries = 3;
  registry::ResilienceStats resilience;
  resilience.requests = 42;
  resilience.retries = 7;
  resilience.breaker_opens = 1;

  std::ostringstream out;
  core::print_download_stats(out, download);
  core::print_resilience(out, resilience);
  const std::string text = out.str();
  EXPECT_NE(text.find("digest="), std::string::npos);
  EXPECT_NE(text.find("retries=7"), std::string::npos);
  EXPECT_NE(text.find("breaker"), std::string::npos);
}

}  // namespace
}  // namespace dockmine

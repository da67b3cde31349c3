// Ablation: gzip level trade-off for registry storage — compression ratio
// vs (de)compression throughput over representative layer content
// (google-benchmark). Context for the paper's "compression is one of the
// major sources of latency when pulling" observation. Also times the
// checksum kernels every layer passes through: SHA-256 (portable and the
// CPUID-dispatched kernel) and the gzip trailer's CRC-32.
#include <benchmark/benchmark.h>

#include "dockmine/compress/content_gen.h"
#include "dockmine/compress/crc32.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/digest/sha256_block.h"
#include "dockmine/util/rng.h"

namespace {

using namespace dockmine;

const std::string& layer_like_content() {
  static const std::string content = [] {
    util::Rng rng(3);
    return compress::generate(8 << 20, 2.6, rng);  // paper's median ratio
  }();
  return content;
}

void BM_GzipCompress(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  const std::string& raw = layer_like_content();
  std::size_t compressed_size = 0;
  for (auto _ : state) {
    auto member = compress::gzip_compress(raw, level);
    compressed_size = member.value().size();
    benchmark::DoNotOptimize(member);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
  state.counters["ratio"] =
      static_cast<double>(raw.size()) / static_cast<double>(compressed_size);
}
BENCHMARK(BM_GzipCompress)->Arg(1)->Arg(6)->Arg(9)->Unit(benchmark::kMillisecond)->MinTime(0.5);

// Level 1 is the `core::JobSpec` default, which serve, coordinate and the
// repository benchmark build their registries at; 6 is gzip's default.
void BM_GzipDecompress(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  const std::string member =
      compress::gzip_compress(layer_like_content(), level).value();
  for (auto _ : state) {
    auto raw = compress::gzip_decompress(member);
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(layer_like_content().size()));
}
BENCHMARK(BM_GzipDecompress)->Arg(1)->Arg(6)->Unit(benchmark::kMillisecond)->MinTime(0.5);

// The SHA-256 block function over whole 64-byte blocks: arg 0 picks the
// portable kernel (0) or the one `Sha256` dispatches to (1), arg 1 the
// message size (a 4 KiB file, an 8 MiB layer).
void BM_Sha256(benchmark::State& state) {
  const auto kernel = state.range(0) == 0 ? digest::detail::compress_portable
                                          : digest::detail::active_kernel();
  const auto size = static_cast<std::size_t>(state.range(1));
  const auto* data =
      reinterpret_cast<const std::uint8_t*>(layer_like_content().data());
  std::uint32_t words[8] = {};
  for (auto _ : state) {
    kernel(words, data, size / 64);
    benchmark::DoNotOptimize(words);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(kernel == digest::detail::compress_portable ? "portable"
                                                             : "sha-ni");
}
BENCHMARK(BM_Sha256)
    ->ArgNames({"dispatched", "bytes"})
    ->ArgsProduct({{0, 1}, {4 << 10, 8 << 20}})
    ->Unit(benchmark::kMicrosecond)
    ->MinTime(0.5);

void BM_Crc32(benchmark::State& state) {
  const std::string& content = layer_like_content();
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::Crc32::of(content));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(content.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond)->MinTime(0.5);

}  // namespace

BENCHMARK_MAIN();

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>

#include "dockmine/compress/content_gen.h"
#include "dockmine/compress/crc32.h"
#include "dockmine/compress/gzip.h"
#include "dockmine/util/rng.h"

// The largest single operator-new request since it was last zeroed: the
// hostile-trailer cases check that a lying ISIZE cannot size an allocation.
namespace {
std::atomic<std::size_t> g_largest_new{0};

void* tracked_malloc(std::size_t size) noexcept {
  std::size_t seen = g_largest_new.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_new.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = tracked_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_malloc(size);
}
// Out of line, so the compiler does not pair an inlined free() with the
// operator-new call site and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dockmine::compress {
namespace {

// ---------- CRC-32 ----------

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32::of(""), 0x00000000u);
  EXPECT_EQ(Crc32::of("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32::of("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Crc32 crc;
  crc.update("The quick brown fox ");
  crc.update("jumps over the lazy dog");
  EXPECT_EQ(crc.value(), 0x414fa339u);
}

/// The byte-at-a-time, table-driven CRC-32 `Crc32` computed before it
/// delegated to zlib: the oracle for the zlib-backed one.
std::uint32_t reference_crc32(std::string_view data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (unsigned char byte : data) c = table[(c ^ byte) & 0xff] ^ (c >> 8);
  return ~c;
}

TEST(Crc32Test, MatchesTableDrivenReferenceAtEverySplit) {
  util::Rng rng(0xC3C32);
  for (std::size_t len : {0u, 1u, 3u, 7u, 8u, 15u, 16u, 31u, 32u, 63u, 64u,
                          65u, 255u, 256u, 1000u, 4096u, 65537u}) {
    std::string buf;
    append_random(buf, len, rng);
    const std::uint32_t want = reference_crc32(buf);
    EXPECT_EQ(Crc32::of(buf), want) << "len=" << len;
    const std::size_t step = len <= 1000 ? 1 : 97;
    for (std::size_t split = 0; split <= len; split += step) {
      Crc32 crc;
      crc.update(std::string_view(buf).substr(0, split));
      crc.update(std::string_view(buf).substr(split));
      ASSERT_EQ(crc.value(), want) << "len=" << len << " split=" << split;
    }
  }
  std::string large;
  append_random(large, 8 << 20, rng);
  EXPECT_EQ(Crc32::of(large), reference_crc32(large));
}

TEST(Crc32Test, EmptyUpdateKeepsValueAndResetRestarts) {
  Crc32 crc;
  crc.update("12345");
  crc.update(std::string_view());  // null data, zero length
  crc.update(nullptr, 0);
  crc.update("6789");
  EXPECT_EQ(crc.value(), 0xcbf43926u);
  crc.reset();
  EXPECT_EQ(crc.value(), 0u);
  crc.update("123456789");
  EXPECT_EQ(crc.value(), 0xcbf43926u);
}

// ---------- gzip ----------

TEST(GzipTest, RoundTripsText) {
  const std::string raw = "hello hello hello gzip world";
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  auto back = gzip_decompress(member.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(GzipTest, RoundTripsEmpty) {
  auto member = gzip_compress("");
  ASSERT_TRUE(member.ok());
  auto back = gzip_decompress(member.value());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(GzipTest, RoundTripsLargeBinary) {
  util::Rng rng(1);
  std::string raw;
  append_random(raw, 3 * 1024 * 1024, rng);
  auto member = gzip_compress(raw, 1);
  ASSERT_TRUE(member.ok());
  // Random data does not compress.
  EXPECT_GT(member.value().size(), raw.size() * 95 / 100);
  auto back = gzip_decompress(member.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(GzipTest, ZerosCompressEnormously) {
  std::string raw(1 << 20, '\0');
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  EXPECT_LT(member.value().size(), raw.size() / 500);
  EXPECT_EQ(gzip_decompress(member.value()).value(), raw);
}

TEST(GzipTest, DetectsCrcCorruption) {
  auto member = gzip_compress("content to protect");
  ASSERT_TRUE(member.ok());
  std::string corrupted = member.value();
  corrupted[corrupted.size() - 6] ^= 0x42;  // flip a CRC byte
  auto back = gzip_decompress(corrupted);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), util::ErrorCode::kCorrupt);
}

TEST(GzipTest, DetectsTruncation) {
  auto member = gzip_compress(std::string(10000, 'a'));
  ASSERT_TRUE(member.ok());
  const std::string truncated = member.value().substr(0, 40);
  EXPECT_FALSE(gzip_decompress(truncated).ok());
}

TEST(GzipTest, RejectsBadMagicAndLevel) {
  EXPECT_FALSE(gzip_decompress("definitely not gzip data....").ok());
  EXPECT_FALSE(gzip_compress("x", 0).ok());
  EXPECT_FALSE(gzip_compress("x", 10).ok());
}

TEST(GzipTest, EnforcesOutputCap) {
  auto member = gzip_compress(std::string(1 << 20, '\0'));
  ASSERT_TRUE(member.ok());
  auto back = gzip_decompress(member.value(), /*max_output=*/1024);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), util::ErrorCode::kOutOfRange);
}

// ---------- hostile trailers ----------

/// `member` with its trailer's ISIZE replaced.
std::string with_isize(std::string member, std::uint32_t isize) {
  for (int i = 0; i < 4; ++i) {
    member[member.size() - 4 + i] = static_cast<char>(isize >> (8 * i));
  }
  return member;
}

std::string layer_like(std::size_t size) {
  util::Rng rng(0x15D5);
  return generate(size, 3.0, rng);
}

TEST(GzipTest, UnderReportedIsizeGrowsThenFailsTheIsizeCheck) {
  const std::string raw = layer_like(1 << 20);
  const std::string member = gzip_compress(raw).value();
  for (std::uint32_t isize : {0u, 10u, (1u << 20) - 1}) {
    auto back = gzip_decompress(with_isize(member, isize));
    ASSERT_FALSE(back.ok()) << isize;
    EXPECT_EQ(back.error().code(), util::ErrorCode::kCorrupt);
    // Reaching the ISIZE check means the whole body inflated: the buffer
    // sized from the short hint grew to the real size.
    EXPECT_EQ(back.error().message(), "gzip ISIZE mismatch") << isize;
  }
}

TEST(GzipTest, OverReportedIsizeFailsTheIsizeCheck) {
  const std::string raw = layer_like(100000);
  const std::string member = gzip_compress(raw).value();
  auto back = gzip_decompress(with_isize(member, 100000 + 4096));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), util::ErrorCode::kCorrupt);
  EXPECT_EQ(back.error().message(), "gzip ISIZE mismatch");
}

TEST(GzipTest, MaxIsizeOnATinyBodyAllocatesNoMoreThanDeflateAllows) {
  const std::string member = gzip_compress("abc").value();
  const std::size_t body = member.size() - 18;
  g_largest_new.store(0);
  auto back = gzip_decompress(with_isize(member, 0xFFFFFFFFu));
  const std::size_t largest = g_largest_new.load();
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), util::ErrorCode::kCorrupt);
  EXPECT_EQ(back.error().message(), "gzip ISIZE mismatch");
  EXPECT_LE(largest, body * 1032 + 1) << "body " << body << " bytes";
}

TEST(GzipTest, OutputCapHoldsWhateverTheTrailerClaims) {
  const std::string raw(1 << 20, '\0');
  const std::string member = gzip_compress(raw).value();
  for (std::uint32_t isize : {0u, 1024u, 1u << 20, 0xFFFFFFFFu}) {
    g_largest_new.store(0);
    auto back = gzip_decompress(with_isize(member, isize), /*max_output=*/1024);
    const std::size_t largest = g_largest_new.load();
    ASSERT_FALSE(back.ok()) << isize;
    EXPECT_EQ(back.error().code(), util::ErrorCode::kOutOfRange) << isize;
    EXPECT_LE(largest, 1025u + 4096u) << isize;  // cap + 1, plus bookkeeping
  }
  // Exactly at the cap is allowed; one byte over is not.
  EXPECT_TRUE(gzip_decompress(member, raw.size()).ok());
  EXPECT_EQ(gzip_decompress(member, raw.size() - 1).error().code(),
            util::ErrorCode::kOutOfRange);
}

TEST(GzipTest, TruncatedBodyWithIntactTrailerIsCorrupt) {
  const std::string raw = layer_like(256 * 1024);
  const std::string member = gzip_compress(raw).value();
  const std::string trailer = member.substr(member.size() - 8);
  for (std::size_t keep : {std::size_t{1}, (member.size() - 18) / 2,
                           member.size() - 19}) {
    auto back = gzip_decompress(member.substr(0, 10 + keep) + trailer);
    ASSERT_FALSE(back.ok()) << keep;
    EXPECT_EQ(back.error().code(), util::ErrorCode::kCorrupt) << keep;
  }
}

TEST(GzipTest, ProbeParsesOptionalHeaderFields) {
  // Hand-build a member with FNAME, then our deflate body from a real
  // member (header fields do not affect the body offsets computed by probe).
  auto member = gzip_compress("payload");
  ASSERT_TRUE(member.ok());
  std::string with_name = member.value();
  with_name[3] = 0x08;  // FLG.FNAME
  with_name.insert(10, std::string("layer.tar\0", 10));
  auto info = gzip_probe(with_name);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().original_name, "layer.tar");
  EXPECT_EQ(info.value().header_size, 20u);
  // And the full decompress still works with the shifted header.
  EXPECT_EQ(gzip_decompress(with_name).value(), "payload");
}

// ---------- content generator ----------

class ContentRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(ContentRatioTest, AchievesTargetWithin35Percent) {
  const double target = GetParam();
  util::Rng rng(42);
  const std::string raw = generate(512 * 1024, target, rng);
  ASSERT_EQ(raw.size(), 512u * 1024u);
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  const double achieved =
      static_cast<double>(raw.size()) / static_cast<double>(member.value().size());
  EXPECT_GT(achieved, target * 0.65) << "target " << target;
  EXPECT_LT(achieved, target * 1.65) << "target " << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, ContentRatioTest,
                         ::testing::Values(1.0, 1.5, 2.0, 2.6, 3.5, 5.0, 8.0,
                                           30.0, 120.0, 700.0));

class AsciiRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(AsciiRatioTest, AsciiSafeStaysPrintableAndOnTarget) {
  const double target = GetParam();
  util::Rng rng(11);
  const std::string raw = generate(256 * 1024, target, rng, /*ascii_safe=*/true);
  for (char c : raw) {
    ASSERT_TRUE((c >= 0x20 && c < 0x7f) || c == '\n') << int(c);
  }
  auto member = gzip_compress(raw);
  ASSERT_TRUE(member.ok());
  const double achieved =
      static_cast<double>(raw.size()) /
      static_cast<double>(member.value().size());
  EXPECT_GT(achieved, target * 0.6);
  EXPECT_LT(achieved, target * 1.7);
}

INSTANTIATE_TEST_SUITE_P(Targets, AsciiRatioTest,
                         ::testing::Values(1.5, 2.6, 3.6, 4.2, 5.0));

TEST(ContentGenTest, MagicPrefixPreserved) {
  util::Rng rng(7);
  const std::string content = generate_with_magic("\x7f""ELF", 1000, 2.0, rng);
  EXPECT_EQ(content.size(), 1000u);
  EXPECT_EQ(content.substr(0, 4), "\x7f""ELF");
}

TEST(ContentGenTest, MagicLongerThanSizeIsTruncated) {
  util::Rng rng(7);
  const std::string content = generate_with_magic("ABCDEFGH", 3, 2.0, rng);
  EXPECT_EQ(content, "ABC");
}

TEST(ContentGenTest, DeterministicForSeed) {
  util::Rng a(5), b(5);
  EXPECT_EQ(generate(4096, 3.0, a), generate(4096, 3.0, b));
}

TEST(ContentGenTest, TextIsAsciiAndWordy) {
  util::Rng rng(9);
  std::string out;
  append_text(out, 1024, rng);
  EXPECT_EQ(out.size(), 1024u);
  for (char c : out) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ' || c == '\n') << int(c);
  }
}

}  // namespace
}  // namespace dockmine::compress

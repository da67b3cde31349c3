#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dockmine/digest/digest.h"
#include "dockmine/digest/sha256.h"
#include "dockmine/digest/sha256_block.h"
#include "dockmine/util/rng.h"

namespace dockmine::digest {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, NistVectors) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShotAtAllSplitPoints) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789abcdef0123456789";
  const auto expected = Sha256::hash(message);
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha256 hasher;
    hasher.update(message.substr(0, split));
    hasher.update(message.substr(split));
    EXPECT_EQ(hasher.finish(), expected) << "split=" << split;
  }
}

TEST(Sha256Test, BlockBoundaryLengths) {
  // Lengths around the 64-byte block and 56-byte padding threshold.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string message(len, 'x');
    Sha256 incremental;
    for (char c : message) incremental.update(&c, 1);
    EXPECT_EQ(incremental.finish(), Sha256::hash(message)) << len;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 hasher;
  hasher.update("garbage");
  (void)hasher.finish();
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(to_hex(hasher.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------- block kernels ----------

constexpr const char* kMillionAs =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

struct NistVector {
  std::string message;
  const char* hex;
};

std::vector<NistVector> nist_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'), kMillionAs},
  };
}

/// SHA-256 of `message` with every block folded by `kernel`, padded here
/// byte by byte, independently of `Sha256::finish`.
Sha256::Bytes hash_with(detail::BlockKernel kernel, std::string_view message) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string padded(message);
  padded += static_cast<char>(0x80);
  while (padded.size() % 64 != 56) padded += '\0';
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded += static_cast<char>(bits >> shift);
  }
  kernel(state, reinterpret_cast<const std::uint8_t*>(padded.data()),
         padded.size() / 64);
  Sha256::Bytes out;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

std::string random_bytes(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

/// The SHA-NI kernel, or nullptr with the reason the test skips.
detail::BlockKernel sha_ni_or_skip_reason(std::string& reason) {
#if DOCKMINE_SHA256_HAVE_SHA_NI
  if (detail::cpu_has_sha_ni()) return detail::compress_sha_ni;
  reason = "CPUID reports no SHA-NI on this CPU";
#else
  reason = "SHA-NI kernel is compiled only for x86-64";
#endif
  return nullptr;
}

/// The named flags from /proc/cpuinfo's first "flags" line; empty when the
/// file is unavailable.
std::set<std::string> proc_cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::set<std::string> flags;
    for (std::string flag; words >> flag;) flags.insert(flag);
    return flags;
  }
  return {};
}

TEST(Sha256KernelTest, PortableMatchesNistVectors) {
  for (const auto& vec : nist_vectors()) {
    EXPECT_EQ(to_hex(hash_with(detail::compress_portable, vec.message)),
              vec.hex)
        << vec.message.size() << " bytes";
  }
}

TEST(Sha256KernelTest, ShaNiMatchesNistVectors) {
  std::string reason;
  const auto sha_ni = sha_ni_or_skip_reason(reason);
  if (sha_ni == nullptr) GTEST_SKIP() << reason;
  for (const auto& vec : nist_vectors()) {
    EXPECT_EQ(to_hex(hash_with(sha_ni, vec.message)), vec.hex)
        << vec.message.size() << " bytes";
  }
}

TEST(Sha256KernelTest, KernelsAgreeOnEveryLengthTo4KiB) {
  std::string reason;
  const auto sha_ni = sha_ni_or_skip_reason(reason);
  if (sha_ni == nullptr) GTEST_SKIP() << reason;
  const std::string message = random_bytes(4096, 0x5A256);
  for (std::size_t len = 0; len <= message.size(); ++len) {
    const std::string_view prefix(message.data(), len);
    const auto want = hash_with(detail::compress_portable, prefix);
    ASSERT_EQ(hash_with(sha_ni, prefix), want) << "len=" << len;
    ASSERT_EQ(Sha256::hash(prefix), want) << "len=" << len;
  }
}

TEST(Sha256KernelTest, KernelsAgreeOn8MiB) {
  std::string reason;
  const auto sha_ni = sha_ni_or_skip_reason(reason);
  if (sha_ni == nullptr) GTEST_SKIP() << reason;
  const std::string message = random_bytes(8 << 20, 0x8A1B);
  const auto want = hash_with(detail::compress_portable, message);
  EXPECT_EQ(hash_with(sha_ni, message), want);
  EXPECT_EQ(Sha256::hash(message), want);
}

// Incremental hashing against the portable kernel's one-shot digest. Where a
// split falls matters only modulo the 64-byte block and relative to the
// 56-byte padding threshold, so every split of every length up to four
// blocks covers each buffered/remainder combination; the 4 KiB and 8 MiB
// messages add long runs of whole blocks handed to one kernel call.
TEST(Sha256KernelTest, IncrementalMatchesPortableAtEverySplit) {
  const std::string message = random_bytes(4096, 0x5A257);
  auto check_splits = [](std::string_view m) {
    const auto want = hash_with(detail::compress_portable, m);
    for (std::size_t split = 0; split <= m.size(); ++split) {
      Sha256 hasher;
      hasher.update(m.substr(0, split));
      hasher.update(m.substr(split));
      ASSERT_EQ(hasher.finish(), want)
          << "len=" << m.size() << " split=" << split;
    }
  };
  for (std::size_t len = 0; len <= 256; ++len) {
    check_splits(std::string_view(message.data(), len));
  }
  check_splits(message);

  const std::string large = random_bytes(8 << 20, 0x8A1C);
  const auto want = hash_with(detail::compress_portable, large);
  Sha256 hasher;
  for (std::size_t pos = 0; pos < large.size();) {
    const std::size_t take = std::min<std::size_t>(65537, large.size() - pos);
    hasher.update(large.data() + pos, take);
    pos += take;
  }
  EXPECT_EQ(hasher.finish(), want);
}

TEST(Sha256KernelTest, DispatchPicksShaNiWhenCpuidReportsIt) {
  const auto flags = proc_cpu_flags();
  if (!flags.empty() && flags.count("sse4_1") > 0 && flags.count("ssse3") > 0) {
    // Where the kernel is compiled, our CPUID probe must agree with the
    // kernel's own view of the CPU.
    EXPECT_EQ(detail::cpu_has_sha_ni(),
              DOCKMINE_SHA256_HAVE_SHA_NI && flags.count("sha_ni") > 0);
  }
#if DOCKMINE_SHA256_HAVE_SHA_NI
  if (detail::cpu_has_sha_ni()) {
    EXPECT_EQ(detail::active_kernel(), &detail::compress_sha_ni);
    return;
  }
#endif
  EXPECT_FALSE(detail::cpu_has_sha_ni());
  EXPECT_EQ(detail::active_kernel(), &detail::compress_portable);
}

TEST(DigestTest, ToStringRoundTrips) {
  const Digest d = Digest::of("layer content");
  const auto parsed = Digest::parse(d.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), d);
}

TEST(DigestTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Digest::parse("md5:abcd").ok());
  EXPECT_FALSE(Digest::parse("sha256:123").ok());
  EXPECT_FALSE(Digest::parse("sha256:" + std::string(64, 'z')).ok());
  EXPECT_TRUE(Digest::parse("sha256:" + std::string(64, 'a')).ok());
}

TEST(DigestTest, ShortHexIsPrefix) {
  const Digest d = Digest::of("abc");
  EXPECT_EQ(d.short_hex(), d.to_string().substr(7, 12));
}

TEST(DigestTest, FromU64DeterministicAndSpread) {
  EXPECT_EQ(Digest::from_u64(42), Digest::from_u64(42));
  std::set<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    keys.insert(Digest::from_u64(i).key64());
  }
  EXPECT_EQ(keys.size(), 10000u);  // no key64 collisions on sequential ids
}

TEST(DigestTest, EqualContentEqualDigestDifferentContentDifferent) {
  EXPECT_EQ(Digest::of("same"), Digest::of("same"));
  EXPECT_NE(Digest::of("same"), Digest::of("Same"));
  EXPECT_FALSE(Digest::of("x").is_zero());
  EXPECT_TRUE(Digest().is_zero());
}

}  // namespace
}  // namespace dockmine::digest

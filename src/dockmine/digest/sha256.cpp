#include "dockmine/digest/sha256.h"

#include <algorithm>
#include <cstring>

#include "dockmine/digest/sha256_block.h"

#if DOCKMINE_SHA256_HAVE_SHA_NI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dockmine::digest {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

constexpr std::size_t kBlock = 64;

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += kBlock) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if DOCKMINE_SHA256_HAVE_SHA_NI

// Intel's SHA extensions: SHA256RNDS2 runs two rounds on a state split into
// ABEF/CDGH lanes; SHA256MSG1/MSG2 extend the message schedule four words at
// a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data,
    std::size_t blocks) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                        0xB1);  // CDAB
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)),
      0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(dcba, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += kBlock) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[q % 4] holds schedule words 4q..4q+3.
    __m128i w[4];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      if (q < 4) {
        w[q] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)),
            byte_swap);
      } else {
        const __m128i prev = w[(q + 3) & 3];
        w[q & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[q & 3], w[(q + 1) & 3]),
                          _mm_alignr_epi8(prev, w[(q + 2) & 3], 4)),
            prev);
      }
      const __m128i wk = _mm_add_epi32(
          w[q & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & bit_SHA) != 0;
}

BlockKernel active_kernel() noexcept {
  static const BlockKernel kernel =
      cpu_has_sha_ni() ? compress_sha_ni : compress_portable;
  return kernel;
}

#else

bool cpu_has_sha_ni() noexcept { return false; }

BlockKernel active_kernel() noexcept { return compress_portable; }

#endif

}  // namespace detail

void Sha256::reset() noexcept {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += size;
  if (buffered_ > 0) {
    const std::size_t take = std::min(size, kBlock - buffered_);
    std::memcpy(buffer_ + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    size -= take;
    if (buffered_ < kBlock) return;
    detail::active_kernel()(state_, buffer_, 1);
    buffered_ = 0;
  }
  if (const std::size_t blocks = size / kBlock; blocks > 0) {
    detail::active_kernel()(state_, bytes, blocks);
    bytes += blocks * kBlock;
    size -= blocks * kBlock;
  }
  if (size > 0) {
    std::memcpy(buffer_, bytes, size);
    buffered_ = size;
  }
}

Sha256::Bytes Sha256::finish() noexcept {
  // 0x80, zeros up to 56 mod 64, then the message length in bits as a
  // 64-bit big-endian integer: one block, or two when the buffered tail
  // leaves fewer than 9 bytes free.
  std::uint8_t tail[2 * kBlock] = {};
  std::memcpy(tail, buffer_, buffered_);
  tail[buffered_] = 0x80;
  const std::size_t tail_size = buffered_ < kBlock - 8 ? kBlock : 2 * kBlock;
  const std::uint64_t bit_len = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_size - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  detail::active_kernel()(state_, tail, tail_size / kBlock);
  buffered_ = 0;
  Bytes out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Bytes Sha256::hash(const void* data, std::size_t size) noexcept {
  Sha256 hasher;
  hasher.update(data, size);
  return hasher.finish();
}

std::string to_hex(const Sha256::Bytes& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < digest.size(); ++i) {
    out[2 * i] = kHex[digest[i] >> 4];
    out[2 * i + 1] = kHex[digest[i] & 0xf];
  }
  return out;
}

}  // namespace dockmine::digest

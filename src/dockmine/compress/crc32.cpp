#include "dockmine/compress/crc32.h"

#include <zlib.h>

#include "dockmine/compress/crc32_kernel.h"

#if DOCKMINE_CRC32_HAVE_PCLMUL
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dockmine::compress {

namespace detail {

std::uint32_t crc32_portable(std::uint32_t crc, const std::uint8_t* data,
                             std::size_t size) noexcept {
  // crc32_z(crc, nullptr, 0) returns the initial value, not `crc`.
  if (size == 0) return crc;
  return static_cast<std::uint32_t>(crc32_z(crc, data, size));
}

#if DOCKMINE_CRC32_HAVE_PCLMUL

namespace {

/// One fold: the 128 bits of `acc` carried `k`'s distance forward and added
/// to `data`. The low constant multiplies the low half, the high the high.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(
    __m128i acc, __m128i k, __m128i data) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       data);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(
    const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

// Gopal et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), in the bit-reflected domain: four 128-bit
// lanes fold 64 bytes a step (x^(512±64) mod P), fold into one lane
// (x^(128±64) mod P), which then folds 16 bytes a step, drops to 64 and then
// 32 bits, and Barrett-reduces with P and floor(x^64 / P).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_pclmul(
    std::uint32_t crc, const std::uint8_t* data, std::size_t size) noexcept {
  if (size < 64) return crc32_portable(crc, data, size);
  const __m128i k512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k64 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 =
      _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(~crc)));
  __m128i x1 = load(data + 16);
  __m128i x2 = load(data + 32);
  __m128i x3 = load(data + 48);
  const std::uint8_t* p = data + 64;
  std::size_t left = size - 64;
  for (; left >= 64; p += 64, left -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }
  __m128i x = fold(fold(fold(x0, k128, x1), k128, x2), k128, x3);
  for (; left >= 16; p += 16, left -= 16) x = fold(x, k128, load(p));

  // 128 -> 64 bits: the low half times x^128 mod P, added to the high half.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  // 64 -> 32 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));
  // Barrett reduction: the quotient estimate times P cancels all but the
  // remainder, left in the second 32-bit word.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  x = _mm_xor_si128(x, q);
  const auto folded = ~static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
  return crc32_portable(folded, p, left);
}

bool cpu_has_pclmul() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
}

Crc32Kernel active_kernel() noexcept {
  static const Crc32Kernel kernel =
      cpu_has_pclmul() ? crc32_pclmul : crc32_portable;
  return kernel;
}

#else

bool cpu_has_pclmul() noexcept { return false; }

Crc32Kernel active_kernel() noexcept { return crc32_portable; }

#endif

}  // namespace detail

void Crc32::update(const void* data, std::size_t size) noexcept {
  value_ = detail::active_kernel()(
      value_, static_cast<const std::uint8_t*>(data), size);
}

}  // namespace dockmine::compress

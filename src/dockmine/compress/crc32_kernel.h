// Internal to dm_compress: the CRC-32 kernels behind `Crc32` and the CPUID
// dispatch between them. Not part of the public API; tests and the kernel
// bench include it to run each kernel directly.
#pragma once

#include <cstddef>
#include <cstdint>

// The PCLMULQDQ kernel exists only where the x86 carry-less multiply can be
// named with a per-function target attribute; elsewhere zlib's `crc32_z` is
// the only kernel compiled.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DOCKMINE_CRC32_HAVE_PCLMUL 1
#else
#define DOCKMINE_CRC32_HAVE_PCLMUL 0
#endif

namespace dockmine::compress::detail {

/// Continues the CRC-32 `crc` of the bytes before (0 for none) over
/// data[0, size) and returns it, conditioned as `crc32_z` conditions it.
using Crc32Kernel = std::uint32_t (*)(std::uint32_t crc,
                                      const std::uint8_t* data,
                                      std::size_t size) noexcept;

/// zlib's `crc32_z`: runs everywhere and is the reference the PCLMULQDQ
/// kernel is tested against.
std::uint32_t crc32_portable(std::uint32_t crc, const std::uint8_t* data,
                             std::size_t size) noexcept;

#if DOCKMINE_CRC32_HAVE_PCLMUL
/// The same function folding 64 bytes a step with carry-less multiplies
/// (PCLMULQDQ), reduced to 32 bits by Barrett reduction; inputs under 64
/// bytes and the last size % 16 bytes go to `crc32_portable`. Call only when
/// `cpu_has_pclmul()` is true.
std::uint32_t crc32_pclmul(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) noexcept;
#endif

/// CPUID reports PCLMULQDQ and SSE4.1 (everything `crc32_pclmul` executes).
/// Always false where the PCLMULQDQ kernel is compiled out.
bool cpu_has_pclmul() noexcept;

/// The kernel `Crc32` uses: PCLMULQDQ when the CPU has it, else portable.
/// Chosen on first call (thread-safe) and fixed for the process.
Crc32Kernel active_kernel() noexcept;

}  // namespace dockmine::compress::detail

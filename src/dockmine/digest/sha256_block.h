// Internal to dm_digest: the SHA-256 block-compression kernels behind
// `Sha256` and the CPUID dispatch between them. Not part of the public API;
// tests and the kernel bench include it to run each kernel directly.
#pragma once

#include <cstddef>
#include <cstdint>

// The SHA-NI kernel exists only where the x86 SHA extensions can be named
// with a per-function target attribute; elsewhere the portable kernel is the
// only one compiled.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DOCKMINE_SHA256_HAVE_SHA_NI 1
#else
#define DOCKMINE_SHA256_HAVE_SHA_NI 0
#endif

namespace dockmine::digest::detail {

/// Folds `blocks` consecutive 64-byte blocks at `data` into `state`
/// (the eight working words H0..H7, host order).
using BlockKernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks) noexcept;

/// FIPS 180-4 §6.2.2 in plain C++; runs everywhere and is the reference
/// the SHA-NI kernel is tested against.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) noexcept;

#if DOCKMINE_SHA256_HAVE_SHA_NI
/// The same function on the SHA-NI instructions (SHA256RNDS2/MSG1/MSG2).
/// Call only when `cpu_has_sha_ni()` is true.
void compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) noexcept;
#endif

/// CPUID reports SHA, SSE4.1 and SSSE3 (everything `compress_sha_ni`
/// executes). Always false where the SHA-NI kernel is compiled out.
bool cpu_has_sha_ni() noexcept;

/// The kernel `Sha256` uses: SHA-NI when the CPU has it, else portable.
/// Chosen on first call (thread-safe) and fixed for the process.
BlockKernel active_kernel() noexcept;

}  // namespace dockmine::digest::detail

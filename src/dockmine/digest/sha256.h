// SHA-256 (FIPS 180-4). Docker addresses every blob and layer by its sha256
// digest; the registry, blob store, and file-level dedup all hash through
// this type. Incremental interface so tar streams can be hashed without
// buffering. The block function is picked once per process from CPUID: the
// SHA-NI instructions on x86-64 CPUs that have them, portable C++ otherwise
// (sha256_block.h); both produce the same bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dockmine::digest {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Bytes = std::array<std::uint8_t, kDigestSize>;

  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(const void* data, std::size_t size) noexcept;
  void update(std::string_view text) noexcept {
    update(text.data(), text.size());
  }

  /// Finalize and return the 32-byte digest. The object must be reset()
  /// before reuse.
  Bytes finish() noexcept;

  /// One-shot convenience.
  static Bytes hash(const void* data, std::size_t size) noexcept;
  static Bytes hash(std::string_view text) noexcept {
    return hash(text.data(), text.size());
  }

 private:
  std::uint32_t state_[8];
  std::uint64_t total_bytes_;
  std::uint8_t buffer_[64];
  std::size_t buffered_;
};

/// Lowercase hex of a raw digest.
std::string to_hex(const Sha256::Bytes& digest);

}  // namespace dockmine::digest

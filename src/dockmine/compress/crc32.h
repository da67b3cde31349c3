// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum in
// the gzip member trailer, DMWF wire frames and DMSHRUN1 run files. Computed
// by a PCLMULQDQ folding kernel where CPUID reports it, and by zlib's
// `crc32_z` elsewhere and for short inputs and tails (crc32_kernel.h); both
// give `crc32_z`'s value (same polynomial and pre/post conditioning). This
// type adds the incremental interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dockmine::compress {

class Crc32 {
 public:
  void update(const void* data, std::size_t size) noexcept;
  void update(std::string_view text) noexcept {
    update(text.data(), text.size());
  }

  std::uint32_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

  static std::uint32_t of(std::string_view data) noexcept {
    Crc32 crc;
    crc.update(data);
    return crc.value();
  }

 private:
  std::uint32_t value_ = 0;
};

}  // namespace dockmine::compress

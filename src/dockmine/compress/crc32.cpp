#include "dockmine/compress/crc32.h"

#include <zlib.h>

namespace dockmine::compress {

void Crc32::update(const void* data, std::size_t size) noexcept {
  // crc32_z(crc, nullptr, 0) returns the initial value, not `crc`.
  if (size == 0) return;
  value_ = static_cast<std::uint32_t>(
      crc32_z(value_, static_cast<const Bytef*>(data), size));
}

}  // namespace dockmine::compress

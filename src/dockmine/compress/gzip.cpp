#include "dockmine/compress/gzip.h"

#include <zlib.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "dockmine/compress/crc32.h"

namespace dockmine::compress {

namespace {

constexpr std::uint8_t kMagic1 = 0x1f;
constexpr std::uint8_t kMagic2 = 0x8b;
constexpr std::uint8_t kMethodDeflate = 8;
constexpr std::uint8_t kFlagHcrc = 0x02;
constexpr std::uint8_t kFlagExtra = 0x04;
constexpr std::uint8_t kFlagName = 0x08;
constexpr std::uint8_t kFlagComment = 0x10;

void put_le32(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v & 0xff);
  out += static_cast<char>((v >> 8) & 0xff);
  out += static_cast<char>((v >> 16) & 0xff);
  out += static_cast<char>((v >> 24) & 0xff);
}

std::uint32_t get_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// zlib counts the bytes it may read or write in a 32-bit `uInt`, so a
/// buffer is handed over in slices of at most UINT_MAX bytes.
uInt zlib_slice(std::size_t remaining) {
  return static_cast<uInt>(
      std::min<std::size_t>(remaining, std::numeric_limits<uInt>::max()));
}

/// Raw DEFLATE (no zlib/gzip wrapper) of `raw`.
util::Result<std::string> deflate_raw(std::string_view raw, int level) {
  z_stream zs{};
  if (deflateInit2(&zs, level, Z_DEFLATED, /*windowBits=*/-15,
                   /*memLevel=*/8, Z_DEFAULT_STRATEGY) != Z_OK) {
    return util::internal("deflateInit2 failed");
  }
  std::string out;
  out.resize(deflateBound(&zs, static_cast<uLong>(raw.size())));
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(raw.data()));
  const Bytef* const in_end = zs.next_in + raw.size();
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  const Bytef* const out_end = zs.next_out + out.size();
  int rc = Z_OK;
  while (rc == Z_OK) {
    if (zs.avail_in == 0) zs.avail_in = zlib_slice(in_end - zs.next_in);
    if (zs.avail_out == 0) zs.avail_out = zlib_slice(out_end - zs.next_out);
    rc = deflate(&zs, zs.next_in + zs.avail_in == in_end ? Z_FINISH
                                                          : Z_NO_FLUSH);
  }
  const std::size_t produced =
      static_cast<std::size_t>(zs.next_out - reinterpret_cast<Bytef*>(out.data()));
  deflateEnd(&zs);
  if (rc != Z_STREAM_END) {
    return util::internal("deflate did not finish (rc=" + std::to_string(rc) + ")");
  }
  out.resize(produced);
  return out;
}

/// Raw INFLATE with an output cap, straight into the result. `size_hint`
/// (the trailer's ISIZE) sizes the first allocation; it is untrusted, so
/// that allocation never exceeds one byte past the cap (the byte that proves
/// the cap exceeded) nor DEFLATE's 1032:1 ratio over the body. A short hint
/// grows the buffer geometrically.
util::Result<std::string> inflate_raw(std::string_view body,
                                      std::uint32_t size_hint,
                                      std::uint64_t max_output) {
  constexpr std::uint64_t kMaxDeflateRatio = 1032;
  constexpr std::uint64_t kMinGrowth = 64 * 1024;
  z_stream zs{};
  if (inflateInit2(&zs, /*windowBits=*/-15) != Z_OK) {
    return util::internal("inflateInit2 failed");
  }
  const std::uint64_t limit =
      max_output < std::numeric_limits<std::size_t>::max() ? max_output + 1
                                                           : max_output;
  std::string out;
  out.resize(std::min({std::uint64_t{size_hint}, limit,
                       std::uint64_t{body.size()} * kMaxDeflateRatio}));
  std::size_t produced = 0;
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(body.data()));
  const Bytef* const in_end = zs.next_in + body.size();
  for (;;) {
    if (zs.avail_in == 0) zs.avail_in = zlib_slice(in_end - zs.next_in);
    zs.next_out = reinterpret_cast<Bytef*>(out.data() + produced);
    zs.avail_out = zlib_slice(out.size() - produced);
    const uInt offered = zs.avail_out;
    const int rc = inflate(&zs, Z_NO_FLUSH);
    produced += offered - zs.avail_out;
    if (rc == Z_STREAM_END) break;
    if (rc != Z_OK && rc != Z_BUF_ERROR) {
      inflateEnd(&zs);
      return util::corrupt("inflate failed (rc=" + std::to_string(rc) + ")");
    }
    if (zs.avail_out != 0) {
      if (zs.next_in == in_end) {
        inflateEnd(&zs);
        return util::corrupt("truncated deflate stream");
      }
    } else if (produced == out.size()) {
      if (out.size() >= limit) {
        inflateEnd(&zs);
        return util::out_of_range("decompressed size exceeds cap");
      }
      out.resize(std::min(limit, std::max<std::uint64_t>(2 * out.size(),
                                                         kMinGrowth)));
    }
  }
  inflateEnd(&zs);
  if (produced > max_output) {
    return util::out_of_range("decompressed size exceeds cap");
  }
  out.resize(produced);
  return out;
}

}  // namespace

util::Result<std::string> gzip_compress(std::string_view raw, int level) {
  if (level < 1 || level > 9) {
    return util::invalid_argument("gzip level must be 1..9");
  }
  auto body = deflate_raw(raw, level);
  if (!body.ok()) return std::move(body).error();

  std::string out;
  out.reserve(body.value().size() + 18);
  out += static_cast<char>(kMagic1);
  out += static_cast<char>(kMagic2);
  out += static_cast<char>(kMethodDeflate);
  out += '\0';                      // FLG: no optional fields
  put_le32(out, 0);                 // MTIME: 0 => no timestamp (reproducible)
  out += static_cast<char>(level == 9 ? 2 : level == 1 ? 4 : 0);  // XFL
  out += static_cast<char>(0xff);   // OS: unknown
  out += body.value();
  put_le32(out, Crc32::of(raw));
  put_le32(out, static_cast<std::uint32_t>(raw.size() & 0xffffffffULL));
  return out;
}

util::Result<GzipInfo> gzip_probe(std::string_view member) {
  const auto* p = reinterpret_cast<const unsigned char*>(member.data());
  if (member.size() < 18) return util::corrupt("gzip member too short");
  if (p[0] != kMagic1 || p[1] != kMagic2) {
    return util::corrupt("bad gzip magic");
  }
  GzipInfo info;
  info.compression_method = p[2];
  if (info.compression_method != kMethodDeflate) {
    return util::corrupt("unsupported gzip compression method " +
                         std::to_string(p[2]));
  }
  const std::uint8_t flags = p[3];
  info.mtime = get_le32(p + 4);
  std::size_t pos = 10;
  if (flags & kFlagExtra) {
    if (pos + 2 > member.size()) return util::corrupt("truncated FEXTRA");
    const std::size_t xlen = p[pos] | (static_cast<std::size_t>(p[pos + 1]) << 8);
    pos += 2 + xlen;
    if (pos > member.size()) return util::corrupt("truncated FEXTRA data");
  }
  if (flags & kFlagName) {
    while (pos < member.size() && p[pos] != 0) {
      info.original_name += static_cast<char>(p[pos++]);
    }
    if (pos >= member.size()) return util::corrupt("unterminated FNAME");
    ++pos;
  }
  if (flags & kFlagComment) {
    while (pos < member.size() && p[pos] != 0) ++pos;
    if (pos >= member.size()) return util::corrupt("unterminated FCOMMENT");
    ++pos;
  }
  if (flags & kFlagHcrc) {
    pos += 2;
    if (pos > member.size()) return util::corrupt("truncated FHCRC");
  }
  info.header_size = pos;
  return info;
}

util::Result<std::string> gzip_decompress(std::string_view member,
                                          std::uint64_t max_output) {
  auto info = gzip_probe(member);
  if (!info.ok()) return std::move(info).error();
  const std::size_t header = info.value().header_size;
  if (member.size() < header + 8) return util::corrupt("gzip member too short");
  const std::string_view body =
      member.substr(header, member.size() - header - 8);
  const auto* trailer = reinterpret_cast<const unsigned char*>(
      member.data() + member.size() - 8);
  const std::uint32_t want_crc = get_le32(trailer);
  const std::uint32_t want_isize = get_le32(trailer + 4);
  auto raw = inflate_raw(body, want_isize, max_output);
  if (!raw.ok()) return raw;

  if (Crc32::of(raw.value()) != want_crc) {
    return util::corrupt("gzip CRC mismatch");
  }
  if (static_cast<std::uint32_t>(raw.value().size() & 0xffffffffULL) != want_isize) {
    return util::corrupt("gzip ISIZE mismatch");
  }
  return raw;
}

}  // namespace dockmine::compress

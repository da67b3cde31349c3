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

/// One byte past the cap, the byte that proves it exceeded: the most a
/// buffer collecting a capped payload ever needs.
std::uint64_t output_limit(std::uint64_t max_output) {
  return max_output < std::numeric_limits<std::size_t>::max() ? max_output + 1
                                                              : max_output;
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
  constexpr std::size_t kMinGrowth = 64 * 1024;
  GzipReader reader(member, max_output);
  // The reader fails once the payload passes the cap.
  const std::uint64_t limit = output_limit(max_output);
  std::string out;
  out.resize(reader.size_hint());
  std::size_t produced = 0;
  for (;;) {
    if (produced == out.size()) {
      out.resize(std::min<std::uint64_t>(
          limit, std::max<std::size_t>(2 * out.size(), kMinGrowth)));
    }
    auto got = reader.read(out.data() + produced, out.size() - produced);
    if (!got.ok()) return std::move(got).error();
    if (got.value() == 0) break;
    produced += got.value();
  }
  out.resize(produced);
  return out;
}

struct GzipReader::Inflate {
  z_stream zs{};
  bool initialized = false;
  ~Inflate() {
    if (initialized) inflateEnd(&zs);
  }
};

GzipReader::GzipReader(std::string_view member, std::uint64_t max_output)
    : max_output_(max_output) {
  auto info = gzip_probe(member);
  if (!info.ok()) {
    fail(std::move(info).error());
    return;
  }
  header_size_ = info.value().header_size;
  if (member.size() < header_size_ + 8) {
    fail(util::corrupt("gzip member too short"));
    return;
  }
  body_ = member.substr(header_size_, member.size() - header_size_ - 8);
  const auto* trailer = reinterpret_cast<const unsigned char*>(
      member.data() + member.size() - 8);
  want_crc_ = get_le32(trailer);
  want_isize_ = get_le32(trailer + 4);
  inflate_ = std::make_unique<Inflate>();
  inflate_->zs.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(body_.data()));
  if (inflateInit2(&inflate_->zs, /*windowBits=*/-15) != Z_OK) {
    fail(util::internal("inflateInit2 failed"));
    return;
  }
  inflate_->initialized = true;
}

GzipReader::~GzipReader() = default;

std::size_t GzipReader::consumed() const noexcept {
  if (inflate_ == nullptr) return 0;
  return header_size_ + static_cast<std::size_t>(
                            reinterpret_cast<const char*>(inflate_->zs.next_in) -
                            body_.data());
}

std::size_t GzipReader::size_hint() const noexcept {
  constexpr std::uint64_t kMaxDeflateRatio = 1032;
  return static_cast<std::size_t>(
      std::min({std::uint64_t{want_isize_}, output_limit(max_output_),
                std::uint64_t{body_.size()} * kMaxDeflateRatio}));
}

util::Result<std::size_t> GzipReader::read(char* out, std::size_t size) {
  if (!status_.ok()) return status_.error();
  if (ended_) return std::size_t{0};
  z_stream& zs = inflate_->zs;
  const Bytef* const in_end =
      reinterpret_cast<const Bytef*>(body_.data() + body_.size());
  std::size_t produced = 0;
  while (produced < size) {
    if (zs.avail_in == 0) zs.avail_in = zlib_slice(in_end - zs.next_in);
    zs.next_out = reinterpret_cast<Bytef*>(out + produced);
    zs.avail_out = zlib_slice(size - produced);
    const uInt offered = zs.avail_out;
    const int rc = inflate(&zs, Z_NO_FLUSH);
    produced += offered - zs.avail_out;
    if (produced_ + produced > max_output_) {
      return fail(util::out_of_range("decompressed size exceeds cap"));
    }
    if (rc == Z_STREAM_END) {
      ended_ = true;
      break;
    }
    if (rc != Z_OK && rc != Z_BUF_ERROR) {
      return fail(
          util::corrupt("inflate failed (rc=" + std::to_string(rc) + ")"));
    }
    if (zs.avail_out != 0 && zs.next_in == in_end) {
      return fail(util::corrupt("truncated deflate stream"));
    }
  }
  crc_.update(out, produced);
  produced_ += produced;
  if (ended_) {
    if (crc_.value() != want_crc_) {
      return fail(util::corrupt("gzip CRC mismatch"));
    }
    if (static_cast<std::uint32_t>(produced_ & 0xffffffffULL) != want_isize_) {
      return fail(util::corrupt("gzip ISIZE mismatch"));
    }
  }
  return produced;
}

}  // namespace dockmine::compress

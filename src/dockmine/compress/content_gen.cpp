#include "dockmine/compress/content_gen.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace dockmine::compress {

namespace {

// Small dictionary: word soup deflates at a fairly stable ~3.5x, similar to
// typical source/config text.
constexpr std::array<std::string_view, 32> kWords = {
    "the",     "include", "return",  "static",  "config",  "version",
    "package", "install", "depends", "library", "service", "export",
    "import",  "value",   "string",  "buffer",  "offset",  "module",
    "public",  "size",    "docker",  "layer",   "image",   "registry",
    "file",    "path",    "data",    "index",   "count",   "total",
    "update",  "default"};

}  // namespace

void append_random(std::string& out, std::size_t size, util::Rng& rng) {
  out.reserve(out.size() + size);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t v = rng();
    for (int b = 0; b < 8; ++b) out += static_cast<char>(v >> (8 * b));
  }
  if (i < size) {
    const std::uint64_t v = rng();
    for (; i < size; ++i) out += static_cast<char>(v >> (8 * (i & 7)));
  }
}

void append_text(std::string& out, std::size_t size, util::Rng& rng) {
  out.reserve(out.size() + size);
  std::size_t written = 0;
  std::size_t line = 0;
  while (written < size) {
    const std::string_view word = kWords[rng.uniform(kWords.size())];
    const std::size_t take = std::min(word.size(), size - written);
    out.append(word.data(), take);
    written += take;
    line += take;
    if (written < size) {
      out += (line > 60) ? '\n' : ' ';
      if (line > 60) line = 0;
      ++written;
    }
  }
}

void append_printable(std::string& out, std::size_t size, util::Rng& rng) {
  out.reserve(out.size() + size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t c = rng.uniform(96);
    out += c == 95 ? '\n' : static_cast<char>(32 + c);
  }
}

void append_zeros(std::string& out, std::size_t size) {
  out.append(size, '\0');
}

std::string generate(std::size_t size, double target_ratio, util::Rng& rng,
                     bool ascii_safe) {
  std::string out;
  out.reserve(size);
  generate_into(out, size, target_ratio, rng, ascii_safe, {});
  return out;
}

void generate_into(std::string& out, std::size_t size, double target_ratio,
                   util::Rng& rng, bool ascii_safe,
                   const std::function<void()>& on_block) {
  if (size == 0) return;

  // Measured deflate ratios of the pure block kinds (see compress_test).
  constexpr double kRandomRatio = 1.0;
  constexpr double kPrintableRatio = 1.31;
  constexpr double kTextRatio = 5.7;
  constexpr double kZeroRatio = 965.0;

  const double low_ratio = ascii_safe ? kPrintableRatio : kRandomRatio;
  target_ratio = std::max(low_ratio, target_ratio);
  if (ascii_safe) target_ratio = std::min(target_ratio, kTextRatio);

  // Two-component mix whose harmonic-mean compressed size matches the
  // target: compressed = f_a*size/r_a + f_b*size/r_b.
  double ratio_a, ratio_b;
  if (target_ratio <= kTextRatio) {
    ratio_a = low_ratio;   // incompressible-ish block
    ratio_b = kTextRatio;  // word soup
  } else {
    ratio_a = kTextRatio;
    ratio_b = kZeroRatio;
  }
  const double inv_target = 1.0 / target_ratio;
  const double inv_a = 1.0 / ratio_a;
  const double inv_b = 1.0 / ratio_b;
  const double frac_a =
      std::clamp((inv_target - inv_b) / (inv_a - inv_b), 0.0, 1.0);

  // Interleave in blocks large enough that deflate's 32 KiB window sees
  // homogeneous runs, so the pure-block ratios compose predictably.
  constexpr std::size_t kBlock = 16 * 1024;
  std::size_t remaining = size;
  double owed_a = 0.0;  // fractional-block accumulator
  while (remaining > 0) {
    const std::size_t take = std::min(kBlock, remaining);
    owed_a += frac_a;
    if (owed_a >= 1.0) {
      owed_a -= 1.0;
      if (ratio_a == kRandomRatio) {
        append_random(out, take, rng);
      } else if (ratio_a == kPrintableRatio) {
        append_printable(out, take, rng);
      } else {
        append_text(out, take, rng);
      }
    } else {
      if (ratio_b == kTextRatio) {
        append_text(out, take, rng);
      } else {
        append_zeros(out, take);
      }
    }
    remaining -= take;
    if (on_block) on_block();
  }
}

std::string generate_with_magic(std::string_view magic, std::size_t size,
                                double target_ratio, util::Rng& rng,
                                bool ascii_safe) {
  if (size <= magic.size()) {
    return std::string(magic.substr(0, size));
  }
  std::string out(magic);
  out += generate(size - magic.size(), target_ratio, rng, ascii_safe);
  return out;
}

}  // namespace dockmine::compress

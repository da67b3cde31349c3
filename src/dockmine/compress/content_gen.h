// Synthetic file content with controllable compressibility.
//
// Figure 4 of the paper measures FLS-to-CLS compression ratios (median 2.6,
// p90 4, max ~1026). To reproduce it with *real* gzip we need byte streams
// whose deflate ratio we can dial: a mix of (a) incompressible random bytes,
// (b) dictionary text resembling source/config files (ratio ~3-4), and
// (c) zero runs (ratio into the hundreds, like sparse DB files). The
// generator composes these per a target ratio.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dockmine/util/rng.h"

namespace dockmine::compress {

/// Append `size` incompressible bytes.
void append_random(std::string& out, std::size_t size, util::Rng& rng);

/// Append `size` bytes of English-like word soup (deflates ~5.7x).
void append_text(std::string& out, std::size_t size, util::Rng& rng);

/// Append `size` printable-ASCII random characters (deflates ~1.3x) —
/// the "incompressible" block for text files, where raw random bytes
/// would make the content classify as binary.
void append_printable(std::string& out, std::size_t size, util::Rng& rng);

/// Append `size` zero bytes (deflates ~1000x).
void append_zeros(std::string& out, std::size_t size);

/// Generate `size` bytes whose gzip ratio approximates `target_ratio`
/// (>= 1.0), by interleaving block kinds. With `ascii_safe` the output is
/// pure printable ASCII (text-typed files must not contain control bytes
/// or the classifier calls them binary); the achievable ratio range is
/// then [~1.3, ~5.7] and the target is clamped into it.
std::string generate(std::size_t size, double target_ratio, util::Rng& rng,
                     bool ascii_safe = false);

/// generate()'s appending form: appends the same bytes to `out` in blocks of
/// at most 16 KiB and calls `on_block` (if set) after each, so a caller can
/// drain `out` between blocks and never hold the whole content.
void generate_into(std::string& out, std::size_t size, double target_ratio,
                   util::Rng& rng, bool ascii_safe,
                   const std::function<void()>& on_block);

/// Content whose first bytes carry the given magic signature (so the
/// file-type classifier sees a realistic file) followed by filler with the
/// requested compressibility.
std::string generate_with_magic(std::string_view magic, std::size_t size,
                                double target_ratio, util::Rng& rng,
                                bool ascii_safe = false);

}  // namespace dockmine::compress

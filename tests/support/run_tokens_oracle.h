// Reference run tokenizer, the test oracle for the symbol pass
// (kern::symbol_pass): a probing scan over the codes, rewritten in place,
// plus the bookkeeping that turns a plain code histogram into the
// symbol histogram the encoder codes. The library's pass must produce
// exactly its token stream, and its folded full count.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sz/huffman.h"

namespace pcw::testsupport {

/// What tokenize_runs did to one block's codes.
struct RunTokenStats {
  std::uint64_t absorbed = 0;                              // codes the tokens replaced
  std::array<std::uint32_t, sz::kRunMaxLog + 1> tokens{};  // tokens per k

  /// Raw length bits the tokens add after their codewords.
  std::uint64_t length_bits() const {
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < tokens.size(); ++k) bits += std::uint64_t{tokens[k]} * k;
    return bits;
  }
  /// Moves the absorbed codes out of hist[radius] and counts the tokens
  /// at hist[2 * radius + k]; `hist` spans run_alphabet(radius) entries.
  template <typename Count>
  void fold_into(std::span<Count> hist, std::uint32_t radius) const {
    hist[radius] -= static_cast<Count>(absorbed);
    for (int k = sz::kRunMinLog; k <= sz::kRunMaxLog; ++k) {
      hist[2ull * radius + static_cast<std::size_t>(k)] += tokens[static_cast<std::size_t>(k)];
    }
  }
};

/// Rewrites `codes` in place into the token stream the encoder codes:
/// each run of at least kRunMin codes equal to `radius` becomes the pair
/// {2 * radius + k, L} per kRunMax-long piece, and a leftover shorter
/// than kRunMin stays as plain codes.
inline RunTokenStats tokenize_runs(std::vector<std::uint32_t>& codes, std::uint32_t radius) {
  RunTokenStats stats;
  const std::uint32_t base = 2 * radius;
  std::uint32_t* c = codes.data();
  const std::size_t n = codes.size();
  // Any run of kRunMin or more codes covers a multiple of kRunMin, so only
  // those positions are probed; a hit is widened to its maximal run. The
  // codes between runs move down in one memmove each, and the write
  // cursor never passes the read cursor: a token pair replaces at least
  // kRunMin codes.
  std::size_t r = 0, w = 0;  // read (emitted up to) and write cursors
  for (std::size_t p = 0; p < n;) {
    if (c[p] != radius) {
      p += sz::kRunMin;
      continue;
    }
    std::size_t begin = p, end = p + 1;
    while (begin > r && c[begin - 1] == radius) --begin;
    while (end < n && c[end] == radius) ++end;
    p = (end + sz::kRunMin - 1) / sz::kRunMin * sz::kRunMin;
    std::size_t len = end - begin;
    if (len < sz::kRunMin) continue;
    if (w != r) std::memmove(c + w, c + r, (begin - r) * sizeof(std::uint32_t));
    w += begin - r;
    while (len >= sz::kRunMin) {
      const auto piece = static_cast<std::uint32_t>(std::min<std::size_t>(len, sz::kRunMax));
      const int k = std::bit_width(piece) - 1;
      c[w++] = base + static_cast<std::uint32_t>(k);
      c[w++] = piece;
      ++stats.tokens[static_cast<std::size_t>(k)];
      stats.absorbed += piece;
      len -= piece;
    }
    for (; len > 0; --len) c[w++] = radius;
    r = end;
  }
  if (w != r) std::memmove(c + w, c + r, (n - r) * sizeof(std::uint32_t));
  codes.resize(w + (n - r));
  return stats;
}

}  // namespace pcw::testsupport

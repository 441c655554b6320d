// The symbol pass, compiled once per dispatch level.
//
// Each kernel TU — kernels_base.cc, kernels_avx2.cc and kernels_avx512.cc
// — defines PCW_KERNEL_NS before including this header, so every level
// runs this one source; only the 64-code equality mask and the span move
// differ, and both are exact. The pass is integer-only, so its output is
// byte-identical at every level.
//
// What it does to one block's codes (see kern::symbol_pass): every
// maximal run of at least kRunMin zero-residual codes (code == radius)
// becomes the container v5 run tokens, and every emitted symbol is
// counted. No code is branched on to find the runs. A 64-code word's
// equality mask eq (bit i: code i == radius) gives
//
//   win  = eq & eq>>1 & ... & eq>>7     (bit i: codes i..i+7 all radius)
//   inr  = win | win<<1 | ... | win<<7  (bit i: code i lies in such a run)
//
// with the shifts carried across word edges (the next word's eq, the
// previous word's win), three ANDs and three ORs by doubling. The run
// edges inr ^ (inr << 1) are decoded into a small list of positions, and
// one loop over the runs then moves each span of kept codes between two
// runs down whole and writes the run's tokens after it. The kept codes
// between runs are contiguous, so no per-code compaction is needed. The
// write cursor never passes the read cursor (a run of L codes becomes at
// most L symbols), so the rewrite is in place.
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "sz/huffman.h"
#include "sz/kernels.h"

#if defined(__SSE2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#if !defined(PCW_KERNEL_NS)
#error "include symbols_impl.h from a kernel TU defining PCW_KERNEL_NS"
#endif

namespace pcw::sz::kern::PCW_KERNEL_NS {
namespace {
namespace symbols {

constexpr std::size_t kWord = 64;
/// Most zero residuals a run-free word may hold and still be counted by
/// the plain loop (see pass()).
constexpr int kPlainZeros = 8;
using u128 = unsigned __int128;

/// Bit i set iff c[i] == radius, for the 64 codes at c. One compare per
/// native register: the plain loop (the non-x86 fallback) makes the whole
/// pass 6-12% slower at AVX2 and AVX-512 and 1.7-1.9x slower at SSE2, and
/// the SSE2 compare at the wider levels 7-12% slower (docs/kernels.md,
/// "Which per-level forks stay").
inline std::uint64_t eq_mask(const std::uint32_t* c, std::uint32_t radius) {
  std::uint64_t m = 0;
#if defined(__AVX512F__)
  const __m512i r = _mm512_set1_epi32(static_cast<int>(radius));
  for (int k = 0; k < 4; ++k) {
    const __m512i v = _mm512_loadu_si512(c + 16 * k);
    m |= std::uint64_t{_mm512_cmpeq_epi32_mask(v, r)} << (16 * k);
  }
#elif defined(__AVX2__)
  const __m256i r = _mm256_set1_epi32(static_cast<int>(radius));
  for (int k = 0; k < 8; ++k) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 8 * k));
    const int bits = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, r)));
    m |= std::uint64_t{static_cast<std::uint8_t>(bits)} << (8 * k);
  }
#elif defined(__SSE2__)
  const __m128i r = _mm_set1_epi32(static_cast<int>(radius));
  for (int k = 0; k < 16; ++k) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + 4 * k));
    const int bits = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, r)));
    m |= std::uint64_t{static_cast<std::uint8_t>(bits)} << (4 * k);
  }
#else
  for (std::size_t i = 0; i < kWord; ++i) m |= std::uint64_t{c[i] == radius} << i;
#endif
  return m;
}

/// eq_mask of word j of an n-code block; 0 past the block, the tail word
/// zero above its last code.
inline std::uint64_t word_mask(const std::uint32_t* c, std::size_t n, std::size_t j,
                               std::uint32_t radius) {
  const std::size_t base = j * kWord;
  if (base + kWord <= n) return eq_mask(c + base, radius);
  std::uint64_t m = 0;
  for (std::size_t i = base; i < n; ++i) m |= std::uint64_t{c[i] == radius} << (i - base);
  return m;
}

/// Moves len codes from src down to dst < src, in order. Each chunk is
/// read before it is written, so the overlap loses no code, and no code
/// past src + len is read or written. The kept spans between runs are
/// mostly short; at AVX-512, memmove in place of the masked copy makes the
/// whole pass 13-14% slower on Nyx codes and 2-5% on VPIC's.
inline void move_codes(std::uint32_t* dst, const std::uint32_t* src, std::size_t len) {
#if defined(__AVX512F__)
  std::size_t k = 0;
  for (; k + 16 <= len; k += 16) _mm512_storeu_si512(dst + k, _mm512_loadu_si512(src + k));
  if (k < len) {
    const auto m = static_cast<__mmask16>((1u << (len - k)) - 1);
    _mm512_mask_storeu_epi32(dst + k, m, _mm512_maskz_loadu_epi32(m, src + k));
  }
#else
  std::memmove(dst, src, len * sizeof(std::uint32_t));
#endif
}

template <typename Count>
std::uint64_t pass(std::uint32_t* c, std::size_t& n, std::uint32_t radius, bool runs,
                   Count* hist) {
  const std::uint32_t token_base = 2 * radius;
  std::array<std::uint64_t, kRunMaxLog + 1> tokens{};
  std::uint64_t zeros = 0;  // zero-residual codes emitted as plain symbols
  std::size_t w = 0;        // write cursor
  std::size_t r = 0;        // read cursor: codes before it are emitted or absorbed
  // Run edges found but not yet emitted, alternating: a run's first code,
  // then the first code after it.
  constexpr std::size_t kEdges = 512;
  std::size_t edges[kEdges + kWord];
  std::size_t pending = 0;
  // Emits the runs of the first `pairs` pending edge pairs: the kept codes
  // before each run move down whole, then the run's tokens follow, kRunMax
  // pieces while at least kRunMin codes remain and the rest plain.
  auto emit = [&](std::size_t pairs) {
    for (std::size_t i = 0; i < pairs; ++i) {
      const std::size_t s = edges[2 * i], e = edges[2 * i + 1];
      if (w != r) move_codes(c + w, c + r, s - r);
      w += s - r;
      for (std::size_t len = e - s;;) {
        if (len < kRunMin) {
          zeros += len;
          for (; len > 0; --len) c[w++] = radius;
          break;
        }
        const auto piece = static_cast<std::uint32_t>(std::min<std::size_t>(len, kRunMax));
        const int k = std::bit_width(piece) - 1;
        c[w++] = token_base + static_cast<std::uint32_t>(k);
        c[w++] = piece;
        ++tokens[static_cast<std::size_t>(k)];
        len -= piece;
      }
      r = e;
    }
    const std::size_t left = pending - 2 * pairs;  // 0, or an open run's start
    for (std::size_t i = 0; i < left; ++i) edges[i] = edges[2 * pairs + i];
    pending = left;
  };

  const std::size_t words = (n + kWord - 1) / kWord;
  std::uint64_t eq = words > 0 ? word_mask(c, n, 0, radius) : 0;
  std::uint64_t eq_next = 0, win_prev = 0, inr = 0;
  for (std::size_t j = 0; j < words; ++j, eq = eq_next) {
    const std::size_t base = j * kWord;
    const std::uint64_t valid = base + kWord <= n ? ~std::uint64_t{0}
                                                  : (std::uint64_t{1} << (n - base)) - 1;
    eq_next = word_mask(c, n, j + 1, radius);
    const std::uint64_t inr_prev = inr;
    if (runs) {
      u128 x = eq | u128{eq_next} << 64;
      x &= x >> 1;
      x &= x >> 2;
      x &= x >> 4;
      const auto win = static_cast<std::uint64_t>(x);
      u128 y = win_prev | u128{win} << 64;
      y |= y << 1;
      y |= y << 2;
      y |= y << 4;
      inr = static_cast<std::uint64_t>(y >> 64);
      win_prev = win;
    }

    // Count before any code of this word moves: the kept zero residuals
    // by popcount, every other code (never inside a run) by its value.
    // This serves runs = false too: a plain ++hist[c] loop is 8x slower
    // on Nyx codes, its increments of hist[radius] chained through memory.
    // A full word with no run code and at most kPlainZeros zero residuals
    // is counted by a fixed-trip loop over all 64 codes instead, which
    // the bit scan's branch per code loses to (docs/kernels.md, "The
    // symbol pass").
    if (base + kWord <= n && inr == 0 && std::popcount(eq) <= kPlainZeros) {
      for (std::size_t i = 0; i < kWord; ++i) ++hist[c[base + i]];
    } else {
      zeros += static_cast<std::uint64_t>(std::popcount(~inr & eq & valid));
      for (std::uint64_t o = ~eq & valid; o != 0; o &= o - 1) {
        ++hist[c[base + static_cast<std::size_t>(std::countr_zero(o))]];
      }
    }

    // The word's run edges: each run's first code, and the first code
    // after each run (one reaching the block's end closes below).
    const std::uint64_t carried = inr << 1 | inr_prev >> 63;
    for (std::uint64_t e = (inr ^ carried) & valid; e != 0; e &= e - 1) {
      edges[pending++] = base + static_cast<std::size_t>(std::countr_zero(e));
    }
    if (pending >= kEdges) emit(pending / 2);
  }
  if (pending % 2 == 1) edges[pending++] = n;  // a run reaching the block's end
  emit(pending / 2);
  if (w != r) move_codes(c + w, c + r, n - r);
  w += n - r;

  hist[radius] += static_cast<Count>(zeros);
  std::uint64_t length_bits = 0;
  for (int k = kRunMinLog; k <= kRunMaxLog; ++k) {
    const std::uint64_t t = tokens[static_cast<std::size_t>(k)];
    if (t == 0) continue;
    hist[token_base + static_cast<std::uint32_t>(k)] += static_cast<Count>(t);
    length_bits += t * static_cast<std::uint64_t>(k);
  }
  n = w;
  return length_bits;
}

}  // namespace symbols
}  // namespace

template <typename Count>
std::uint64_t symbol_pass(std::uint32_t* codes, std::size_t& n, std::uint32_t radius,
                          bool runs, Count* hist) {
  return symbols::pass<Count>(codes, n, radius, runs, hist);
}

template std::uint64_t symbol_pass<std::uint32_t>(std::uint32_t*, std::size_t&,
                                                  std::uint32_t, bool, std::uint32_t*);
template std::uint64_t symbol_pass<std::uint64_t>(std::uint32_t*, std::size_t&,
                                                  std::uint32_t, bool, std::uint64_t*);

}  // namespace pcw::sz::kern::PCW_KERNEL_NS

// The Huffman encoder's bulk loop, compiled once per dispatch level.
//
// Each kernel TU — kernels_base.cc, kernels_avx2.cc and kernels_avx512.cc
// — defines PCW_KERNEL_NS before including this header. The loop is
// integer-only, so its bytes are the same at every level; the levels
// differ in the instructions the compiler may use. The AVX2 and AVX-512
// TUs are built with BMI2, whose flag-free variable shifts (shlx, shrx)
// this loop spends most of its work on (docs/kernels.md, "Huffman: bulk
// encode").
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "sz/kernels.h"

#if !defined(PCW_KERNEL_NS)
#error "include pack_impl.h from a kernel TU defining PCW_KERNEL_NS"
#endif

namespace pcw::sz::kern::PCW_KERNEL_NS {

PackTail pack_symbols(const std::uint32_t* symbols, std::size_t n,
                      std::span<const std::uint64_t> table, std::uint32_t offset,
                      std::uint64_t token_base, std::uint8_t* out) {
  // Every element is one table entry, code | len << 56: a symbol's
  // codeword, or for the length word after a token symbol its k low bits.
  // Masks, not branches, select the entry, since the compiler turns ?:
  // here into branches that mispredict on token-heavy streams.
  // `length_word` is all ones when the next element is a length word:
  // after a token symbol that was not itself a length word, so small
  // radii, whose length words can reach token_base, stay exact.
  constexpr std::uint64_t kCodeMask = (std::uint64_t{1} << 56) - 1;
  const std::uint64_t* const entries = table.data();
  // Negative exactly for symbols >= token_base (no u32 symbol reaches 2^32).
  const std::int64_t last_plain =
      static_cast<std::int64_t>(std::min<std::uint64_t>(token_base, std::uint64_t{1} << 32)) - 1;
  std::uint64_t length_word = 0;
  auto entry = [&](std::uint32_t symbol) {
    const std::uint64_t is_length = length_word;
    const std::uint32_t index = symbol + (offset & ~static_cast<std::uint32_t>(is_length));
    const auto token = static_cast<std::uint64_t>((last_plain - symbol) >> 63);
    length_word = token & ~is_length;
    assert(index < table.size() && entries[index] != 0 && "symbol not in codebook");
    return entries[index];
  };
  // A flush ORs its bits above the register's 0..7 pending ones (<= 63
  // bits), stores all 8 register bytes and keeps the whole ones.
  std::uint8_t* p = out;
  std::uint64_t acc = 0;
  int nb = 0;
  auto flush = [&](std::uint64_t bits, int len) {
    acc |= bits << nb;
    nb += len;
    std::memcpy(p, &acc, 8);
    p += nb >> 3;
    acc >>= (nb & ~7);
    nb &= 7;
  };
  // Four entries whose lengths sum to <= 56 are folded into one word and
  // flushed once; otherwise each is flushed on its own.
  const std::uint32_t* s = symbols;
  const std::uint32_t* const groups_end = s + (n & ~std::size_t{3});
  for (; s != groups_end; s += 4) {
    const std::uint64_t e0 = entry(s[0]);
    const std::uint64_t e1 = entry(s[1]);
    const std::uint64_t e2 = entry(s[2]);
    const std::uint64_t e3 = entry(s[3]);
    const int total = static_cast<int>((e0 >> 56) + (e1 >> 56) + (e2 >> 56) + (e3 >> 56));
    if (total <= 56) {
      std::uint64_t w = e3 & kCodeMask;
      w = w << (e2 >> 56) | (e2 & kCodeMask);
      w = w << (e1 >> 56) | (e1 & kCodeMask);
      w = w << (e0 >> 56) | (e0 & kCodeMask);
      flush(w, total);
    } else {
      flush(e0 & kCodeMask, static_cast<int>(e0 >> 56));
      flush(e1 & kCodeMask, static_cast<int>(e1 >> 56));
      flush(e2 & kCodeMask, static_cast<int>(e2 >> 56));
      flush(e3 & kCodeMask, static_cast<int>(e3 >> 56));
    }
  }
  for (; s != symbols + n; ++s) {
    const std::uint64_t e = entry(*s);
    flush(e & kCodeMask, static_cast<int>(e >> 56));
  }
  return {p, acc, nb};
}

}  // namespace pcw::sz::kern::PCW_KERNEL_NS

#include "lz_compress.h"

#include <bit>
#include <cstring>

namespace pcw::testsupport {
namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 16;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr int kMaxChainDepth = 16;  // hash-chain probe limit: speed/ratio knob

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_extended_length(std::vector<std::uint8_t>& out, std::size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(len));
}

}  // namespace

std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 64);
  const std::size_t n = input.size();
  const std::uint8_t* src = input.data();

  // head[h]: most recent position with hash h; chain[i]: previous position
  // with the same hash as i. Positions stored +1 so 0 means "none". Both
  // tables are reused across calls; head is reset each call, but chain
  // needs no clearing — every position reachable through head was
  // inserted this call, and insertion writes chain[pos] first, so stale
  // entries from earlier buffers are never read.
  static thread_local std::vector<std::uint32_t> head;
  static thread_local std::vector<std::uint32_t> chain;
  head.assign(kHashSize, 0);
  if (chain.size() < n) chain.resize(n);

  // Exact length of the common prefix of src[a..] and src[b..], capped at
  // `limit` — word-at-a-time with a ctz on the first differing word, same
  // value as the byte loop.
  auto match_len = [src](std::size_t a, std::size_t b, std::size_t limit) {
    std::size_t len = 0;
    if constexpr (std::endian::native == std::endian::little) {
      while (len + 8 <= limit) {
        std::uint64_t x, y;
        std::memcpy(&x, src + a + len, 8);
        std::memcpy(&y, src + b + len, 8);
        const std::uint64_t diff = x ^ y;
        if (diff != 0) {
          return len + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
        }
        len += 8;
      }
    }
    while (len < limit && src[a + len] == src[b + len]) ++len;
    return len;
  };

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto emit_sequence = [&](std::size_t lit_len, std::size_t match_len,
                           std::size_t offset, bool final_literals) {
    const std::size_t lit_token = lit_len < 15 ? lit_len : 15;
    std::size_t match_token = 0;
    if (!final_literals) {
      const std::size_t m = match_len - kMinMatch;
      match_token = m < 15 ? m : 15;
    }
    out.push_back(static_cast<std::uint8_t>((lit_token << 4) | match_token));
    if (lit_token == 15) put_extended_length(out, lit_len - 15);
    out.insert(out.end(), src + literal_start, src + literal_start + lit_len);
    if (final_literals) return;
    out.push_back(static_cast<std::uint8_t>(offset & 0xff));
    out.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (match_token == 15) put_extended_length(out, match_len - kMinMatch - 15);
  };

  while (pos + kMinMatch <= n) {
    const std::uint32_t h = hash4(load32(src + pos));
    std::size_t best_len = 0;
    std::size_t best_offset = 0;
    std::uint32_t candidate = head[h];
    for (int depth = 0; depth < kMaxChainDepth && candidate != 0; ++depth) {
      const std::size_t cand_pos = candidate - 1;
      const std::size_t offset = pos - cand_pos;
      if (offset > kMaxOffset) break;  // chain is ordered; older ones are farther
      // Cheap reject: compare the byte just past the current best.
      if (best_len == 0 ||
          (pos + best_len < n && src[cand_pos + best_len] == src[pos + best_len])) {
        const std::size_t len = match_len(cand_pos, pos, n - pos);
        if (len > best_len) {
          best_len = len;
          best_offset = offset;
        }
      }
      candidate = chain[cand_pos];
    }

    if (best_len >= kMinMatch) {
      emit_sequence(pos - literal_start, best_len, best_offset, false);
      // Insert hash entries across the match so later data can reference
      // its interior; stride 1 would be thorough but slow, stride 2 is a
      // good ratio/speed compromise for Huffman-stream inputs.
      const std::size_t match_end = pos + best_len;
      for (; pos + kMinMatch <= match_end && pos + kMinMatch <= n; pos += 2) {
        const std::uint32_t hh = hash4(load32(src + pos));
        chain[pos] = head[hh];
        head[hh] = static_cast<std::uint32_t>(pos + 1);
      }
      pos = match_end;
      literal_start = pos;
    } else {
      chain[pos] = head[h];
      head[h] = static_cast<std::uint32_t>(pos + 1);
      ++pos;
    }
  }

  // Trailing literal-only sequence (possibly empty — still emitted so the
  // decoder can detect completion by consuming all input).
  emit_sequence(n - literal_start, 0, 0, true);
  return out;
}

}  // namespace pcw::testsupport

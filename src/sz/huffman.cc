#include "sz/huffman.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <queue>
#include <stdexcept>

#include "util/cpu.h"

namespace pcw::sz {
namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_varint(std::span<const std::uint8_t> in, std::size_t& pos) {
  std::uint32_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) throw std::runtime_error("huffman: truncated varint");
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint32_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    if (shift > 28) throw std::runtime_error("huffman: varint overflow");
  }
}

std::uint32_t reverse_bits(std::uint32_t code, int len) {
  std::uint32_t rev = 0;
  for (int i = 0; i < len; ++i) {
    rev = (rev << 1) | ((code >> i) & 1u);
  }
  return rev;
}

// Tree construction via the classic sort + two-queue merge: after the
// leaves are sorted by count, internal nodes are produced in
// non-decreasing count order, so the two minima are always at the fronts
// of the leaf queue and the internal-node FIFO. O(K log K) for the sort,
// O(K) for the merge — ~20x faster than a binary-heap build at the 30-60k
// distinct symbols tight error bounds produce.
std::vector<std::uint8_t> build_depths(std::span<const SymbolCount> freqs) {
  struct Leaf {
    std::uint64_t count;
    std::uint32_t entry;  // index into freqs
  };
  std::vector<Leaf> leaves;
  leaves.reserve(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (freqs[i].count > 0) leaves.push_back({freqs[i].count, static_cast<std::uint32_t>(i)});
  }
  std::vector<std::uint8_t> depths(freqs.size(), 0);
  const std::size_t k = leaves.size();
  if (k == 0) return depths;
  if (k == 1) {
    depths[leaves[0].entry] = 1;
    return depths;
  }
  std::sort(leaves.begin(), leaves.end(), [](const Leaf& a, const Leaf& b) {
    if (a.count != b.count) return a.count < b.count;
    return a.entry < b.entry;
  });

  // Node ids: [0, k) leaves in sorted order, [k, 2k-1) internals in
  // creation order.
  std::vector<std::uint64_t> internal_count;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> children;
  internal_count.reserve(k - 1);
  children.reserve(k - 1);
  std::size_t next_leaf = 0, next_internal = 0;
  auto take_min = [&]() -> std::pair<std::uint64_t, std::uint32_t> {
    const bool leaf_ok = next_leaf < k;
    const bool internal_ok = next_internal < children.size();
    // <= prefers leaves on ties: keeps codes for rare symbols shallower.
    if (leaf_ok && (!internal_ok || leaves[next_leaf].count <= internal_count[next_internal])) {
      const auto id = static_cast<std::uint32_t>(next_leaf);
      return {leaves[next_leaf++].count, id};
    }
    const auto id = static_cast<std::uint32_t>(k + next_internal);
    return {internal_count[next_internal++], id};
  };
  for (std::size_t merge = 0; merge + 1 < k; ++merge) {
    const auto a = take_min();
    const auto b = take_min();
    children.emplace_back(a.second, b.second);
    internal_count.push_back(a.first + b.first);
  }

  // Depths: the root is the last internal; walk internals backwards.
  std::vector<std::uint8_t> node_depth(k + children.size(), 0);
  for (std::size_t idx = children.size(); idx-- > 0;) {
    const auto d = static_cast<std::uint8_t>(node_depth[k + idx] + 1);
    node_depth[children[idx].first] = d;
    node_depth[children[idx].second] = d;
  }
  for (std::size_t j = 0; j < k; ++j) {
    depths[leaves[j].entry] = node_depth[j];
  }
  return depths;
}

}  // namespace

std::uint64_t RunTokenStats::length_bits() const {
  std::uint64_t bits = 0;
  for (std::size_t k = 0; k < tokens.size(); ++k) bits += tokens[k] * k;
  return bits;
}

RunTokenStats tokenize_runs(std::vector<std::uint32_t>& codes, std::uint32_t radius) {
  RunTokenStats stats;
  const std::uint32_t base = 2 * radius;
  std::uint32_t* c = codes.data();
  const std::size_t n = codes.size();
  // Any run of kRunMin or more codes covers a multiple of kRunMin, so only
  // those positions are probed; a hit is widened to its maximal run. The
  // codes between runs move down in one memmove each (none before the
  // first token), and the write cursor never passes the read cursor: a
  // token pair replaces at least kRunMin codes.
  std::size_t r = 0, w = 0;  // read (emitted up to) and write cursors
  for (std::size_t p = 0; p < n;) {
    if (c[p] != radius) {
      p += kRunMin;
      continue;
    }
    std::size_t begin = p, end = p + 1;
    while (begin > r && c[begin - 1] == radius) --begin;
    while (end < n && c[end] == radius) ++end;
    p = (end + kRunMin - 1) / kRunMin * kRunMin;
    std::size_t len = end - begin;
    if (len < kRunMin) continue;
    if (w != r) std::memmove(c + w, c + r, (begin - r) * sizeof(std::uint32_t));
    w += begin - r;
    while (len >= kRunMin) {
      const auto piece = static_cast<std::uint32_t>(std::min<std::size_t>(len, kRunMax));
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

std::vector<std::uint8_t> huffman_code_lengths(std::span<const SymbolCount> freqs) {
  // The BitWriter register holds at most 57 bits per put(); depths beyond
  // that are only reachable with pathological (near-Fibonacci) frequency
  // profiles. Flatten by square-rooting the counts until the tree fits.
  std::vector<SymbolCount> work(freqs.begin(), freqs.end());
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto depths = build_depths(work);
    std::uint8_t max_depth = 0;
    for (auto d : depths) max_depth = std::max(max_depth, d);
    if (max_depth <= 56) return depths;
    for (auto& entry : work) {
      if (entry.count > 1) {
        entry.count = static_cast<std::uint64_t>(std::max<double>(
            1.0, std::sqrt(static_cast<double>(entry.count))));
      }
    }
  }
  throw std::runtime_error("huffman: could not bound code length");
}

HuffmanEncoder::HuffmanEncoder(std::span<const SymbolCount> freqs) {
  const auto depths = huffman_code_lengths(freqs);
  struct Entry {
    std::uint32_t symbol;
    std::uint8_t len;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (depths[i] > 0) entries.push_back({freqs[i].symbol, depths[i]});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.len != b.len) return a.len < b.len;
    return a.symbol < b.symbol;
  });
  symbols_.reserve(entries.size());
  lengths_.reserve(entries.size());
  std::uint32_t min_sym = ~0u, max_sym = 0;
  for (const auto& e : entries) {
    symbols_.push_back(e.symbol);
    lengths_.push_back(e.len);
    min_sym = std::min(min_sym, e.symbol);
    max_sym = std::max(max_sym, e.symbol);
    max_len_ = std::max<int>(max_len_, e.len);
  }
  if (entries.empty()) return;
  min_sym_ = min_sym;
  code_of_.assign(max_sym - min_sym + 1, 0);
  len_of_.assign(max_sym - min_sym + 1, 0);
  packed_.assign(max_sym - min_sym + 1, 0);
  // Canonical code assignment in (length, symbol) order.
  std::uint32_t code = 0;
  std::uint8_t prev_len = entries.front().len;
  for (const auto& e : entries) {
    code <<= (e.len - prev_len);
    prev_len = e.len;
    code_of_[e.symbol - min_sym_] = reverse_bits(code, e.len);
    len_of_[e.symbol - min_sym_] = e.len;
    packed_[e.symbol - min_sym_] =
        code_of_[e.symbol - min_sym_] | (static_cast<std::uint64_t>(e.len) << 56);
    ++code;
  }
}

void HuffmanEncoder::encode(std::uint32_t symbol, util::BitWriter& out) const {
  assert(symbol >= min_sym_ && symbol - min_sym_ < len_of_.size());
  const std::uint32_t slot = symbol - min_sym_;
  assert(len_of_[slot] > 0 && "symbol not in codebook");
  out.put(code_of_[slot], len_of_[slot]);
}

void HuffmanEncoder::encode_all(std::span<const std::uint32_t> symbols,
                                util::BitWriter& out, std::uint64_t token_base) const {
  // Bulk path: pack codewords into a local buffer with one unconditional
  // 8-byte store per symbol, then splice the whole run into the writer.
  // The stream is just the concatenation of LSB-first codewords (each
  // token's length bits right after its codeword), so this emits the same
  // bytes as per-symbol put() while skipping its register spill per
  // symbol. Needs a byte-aligned writer (block payloads start one) and
  // codes that fit the u32 table.
  const std::size_t n = symbols.size();
  if (std::endian::native == std::endian::little && out.byte_aligned() &&
      max_len_ > 0 && max_len_ <= 32) {
    static thread_local std::vector<std::uint8_t> buf;
    // With tokens, one spare byte per entry covers a token's length bits:
    // its pair of entries budgets >= max_len_ + 16 bits.
    const std::size_t per_entry =
        static_cast<std::size_t>((max_len_ + 7) / 8) + (token_base != kNoRunTokens ? 1 : 0);
    const std::size_t need = n * per_entry + 8;
    if (buf.size() < need) buf.resize(need);
    std::uint8_t* p = buf.data();
    std::uint64_t acc = 0;
    int nb = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t symbol = symbols[i];
      assert(symbol >= min_sym_ && symbol - min_sym_ < len_of_.size());
      const std::uint32_t slot = symbol - min_sym_;
      assert(len_of_[slot] > 0 && "symbol not in codebook");
      const std::uint64_t e = packed_[slot];
      acc |= (e & 0x00ffffffffffffffull) << nb;
      nb += static_cast<int>(e >> 56);
      if (symbol >= token_base) {
        // The run length's k low bits; its top bit is implied by k.
        const int k = static_cast<int>(symbol - token_base);
        acc |= static_cast<std::uint64_t>(symbols[++i] ^ (1u << k)) << nb;
        nb += k;
      }
      std::memcpy(p, &acc, 8);  // nb <= 7 + 32 + 12: the register never overflows
      p += nb >> 3;
      acc >>= (nb & ~7);
      nb &= 7;
    }
    out.append_bytes({buf.data(), static_cast<std::size_t>(p - buf.data())});
    out.put(acc, nb);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t symbol = symbols[i];
    assert(symbol >= min_sym_ && symbol - min_sym_ < len_of_.size());
    const std::uint32_t slot = symbol - min_sym_;
    assert(len_of_[slot] > 0 && "symbol not in codebook");
    out.put(code_of_[slot], len_of_[slot]);
    if (symbol >= token_base) {
      const int k = static_cast<int>(symbol - token_base);
      out.put(symbols[++i] ^ (1u << k), k);
    }
  }
}

std::vector<std::uint8_t> HuffmanEncoder::serialize_codebook() const {
  std::vector<std::uint8_t> out;
  put_varint(out, static_cast<std::uint32_t>(symbols_.size()));
  for (std::size_t i = 0; i < symbols_.size(); ++i) {
    put_varint(out, symbols_[i]);
    out.push_back(lengths_[i]);
  }
  return out;
}

std::uint64_t HuffmanEncoder::cost_bits(std::span<const SymbolCount> freqs) const {
  std::uint64_t bits = 0;
  for (const auto& f : freqs) {
    if (f.count == 0) continue;
    if (f.symbol < min_sym_ || f.symbol - min_sym_ >= len_of_.size()) continue;
    bits += f.count * len_of_[f.symbol - min_sym_];
  }
  return bits;
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> codebook,
                               std::size_t* consumed, std::uint32_t run_radius) {
  std::size_t pos = 0;
  const std::uint32_t n = get_varint(codebook, pos);
  symbols_.resize(n);
  lengths_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    symbols_[i] = get_varint(codebook, pos);
    if (pos >= codebook.size()) throw std::runtime_error("huffman: truncated codebook");
    lengths_[i] = codebook[pos++];
    if (lengths_[i] == 0 || lengths_[i] > 56) {
      throw std::runtime_error("huffman: invalid code length");
    }
  }
  if (consumed != nullptr) *consumed = pos;
  if (run_radius != 0) {
    token_base_ = 2ull * run_radius;
    run_code_ = run_radius;
    for (const std::uint32_t sym : symbols_) {
      if (sym >= token_base_ &&
          (sym - token_base_ < static_cast<std::uint64_t>(kRunMinLog) ||
           sym - token_base_ > static_cast<std::uint64_t>(kRunMaxLog))) {
        throw std::runtime_error("huffman: invalid run token symbol");
      }
    }
  }
  // Re-derive canonical order defensively (serialization is already sorted).
  std::vector<std::size_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    if (lengths_[a] != lengths_[b]) return lengths_[a] < lengths_[b];
    return symbols_[a] < symbols_[b];
  });
  std::vector<std::uint32_t> sym2(n);
  std::vector<std::uint8_t> len2(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sym2[i] = symbols_[order[i]];
    len2[i] = lengths_[order[i]];
  }
  symbols_ = std::move(sym2);
  lengths_ = std::move(len2);
  for (auto l : lengths_) max_len_ = std::max<int>(max_len_, l);

  first_code_.assign(static_cast<std::size_t>(max_len_) + 2, 0);
  first_index_.assign(static_cast<std::size_t>(max_len_) + 2, 0);
  std::vector<std::uint32_t> count_per_len(static_cast<std::size_t>(max_len_) + 1, 0);
  for (auto l : lengths_) ++count_per_len[l];
  std::uint32_t code = 0, index = 0;
  for (int len = 1; len <= max_len_; ++len) {
    code <<= 1;
    first_code_[static_cast<std::size_t>(len)] = code;
    first_index_[static_cast<std::size_t>(len)] = index;
    code += count_per_len[static_cast<std::size_t>(len)];
    index += count_per_len[static_cast<std::size_t>(len)];
  }
  first_index_[static_cast<std::size_t>(max_len_) + 1] = index;

  // Level-1 table for short codes; long codes are collected per root
  // prefix and land in level-2 tables below.
  struct LongCode {
    std::uint32_t prefix;   // low kFastBits of the reversed code
    std::uint64_t subidx;   // remaining (len - kFastBits) stream bits
    std::uint8_t sublen;    // len - kFastBits
    std::uint32_t symbol;
    std::uint8_t len;
  };
  std::vector<LongCode> long_codes;
  fast_.assign(std::size_t{1} << kFastBits, FastEntry{});
  std::uint32_t running_code = 0;
  std::uint8_t prev_len = n > 0 ? lengths_[0] : 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    running_code <<= (lengths_[i] - prev_len);
    prev_len = lengths_[i];
    if (lengths_[i] <= kFastBits) {
      const auto rev =
          static_cast<std::uint32_t>(reverse_bits(running_code, lengths_[i]));
      const std::uint32_t step = 1u << lengths_[i];
      for (std::uint32_t fill = rev; fill < fast_.size(); fill += step) {
        fast_[fill] = {symbols_[i], lengths_[i]};
      }
    } else {
      const std::uint64_t rev = reverse_bits(running_code, lengths_[i]);
      LongCode lc;
      lc.prefix = static_cast<std::uint32_t>(rev & ((1u << kFastBits) - 1));
      lc.subidx = rev >> kFastBits;
      lc.sublen = static_cast<std::uint8_t>(lengths_[i] - kFastBits);
      lc.symbol = symbols_[i];
      lc.len = lengths_[i];
      long_codes.push_back(lc);
    }
    ++running_code;
  }
  // Build one level-2 table per distinct root prefix, sized for the
  // deepest code it must resolve (capped at kSubBits; anything deeper
  // keeps a hole and resolves via the canonical slow path).
  std::stable_sort(long_codes.begin(), long_codes.end(),
                   [](const LongCode& a, const LongCode& b) {
                     return a.prefix < b.prefix;
                   });
  for (std::size_t lo = 0; lo < long_codes.size();) {
    std::size_t hi = lo;
    std::uint8_t group_bits = 0;
    while (hi < long_codes.size() && long_codes[hi].prefix == long_codes[lo].prefix) {
      group_bits = std::max<std::uint8_t>(
          group_bits, std::min<std::uint8_t>(long_codes[hi].sublen, kSubBits));
      ++hi;
    }
    SubMeta meta;
    meta.offset = static_cast<std::uint32_t>(sub_.size());
    meta.bits = group_bits;
    sub_.resize(sub_.size() + (std::size_t{1} << group_bits));
    for (std::size_t j = lo; j < hi; ++j) {
      const LongCode& lc = long_codes[j];
      if (lc.sublen > group_bits) continue;  // deeper than the table: slow path
      const std::uint64_t step = std::uint64_t{1} << lc.sublen;
      for (std::uint64_t fill = lc.subidx; fill < (std::uint64_t{1} << group_bits);
           fill += step) {
        sub_[meta.offset + fill] = {lc.symbol, lc.len};
      }
    }
    fast_[long_codes[lo].prefix] = {static_cast<std::uint32_t>(sub_meta_.size()),
                                    kSubMarker};
    sub_meta_.push_back(meta);
    lo = hi;
  }

  // The pack table only pays off when decode_run actually runs the
  // multi-symbol path, which is gated to SIMD dispatch levels so
  // PCW_SIMD=off exercises (and times) the scalar single-symbol decoder.
  if (util::simd_active() != util::Simd::kScalar) build_pack_table();
}

// For every kFastBits window, pre-walk the chain of whole codes it
// provably contains. A code is accepted only while its entire codeword
// lies within the window's known bits: fast_ is replication-filled, so
// indexing with the remaining (zero-extended) window bits lands on the
// true entry whenever the entry's length fits the bits still known —
// longer entries, sub-table markers, and invalid prefixes terminate the
// walk since the unknown following bits could change them.
void HuffmanDecoder::build_pack_table() {
  if (symbols_.size() <= 1) return;
  pack_.assign(fast_.size(), PackEntry{});
  for (std::uint32_t window = 0; window < fast_.size(); ++window) {
    PackEntry& e = pack_[window];
    int used = 0;
    while (e.nsyms < kPackSyms) {
      const FastEntry& fe = fast_[window >> used];
      if (fe.len == 0 || fe.len == kSubMarker || fe.len > kFastBits - used) break;
      if (fe.symbol >= token_base_) {
        // A run token ends the packed run; it joins the entry only when
        // its k length bits are known window bits too.
        const int k = static_cast<int>(fe.symbol - token_base_);
        if (fe.len + k <= kFastBits - used) {
          e.run = static_cast<std::uint16_t>((1u << k) |
                                             ((window >> (used + fe.len)) & ((1u << k) - 1)));
          used += fe.len + k;
        }
        break;
      }
      if (fe.symbol > 0xffffu) break;  // does not fit a u16 slot
      e.syms[e.nsyms++] = static_cast<std::uint16_t>(fe.symbol);
      used += fe.len;
    }
    e.bits = static_cast<std::uint8_t>(used);
    // A single packed symbol is just decode() with extra steps; leave the
    // entry unpackable so the run loop takes the plain path.
    if (e.nsyms <= 1 && e.run == 0) e = PackEntry{};
  }
}

std::uint32_t HuffmanDecoder::decode(util::BitReader& in) const {
  if (symbols_.size() == 1) {
    in.get(1);
    return symbols_[0];
  }
  const auto window = static_cast<std::uint32_t>(in.peek(kFastBits));
  const FastEntry& entry = fast_[window];
  if (entry.len > 0 && entry.len <= kFastBits) {
    in.skip(entry.len);
    return entry.symbol;
  }
  if (entry.len == kSubMarker) {
    const SubMeta& meta = sub_meta_[entry.symbol];
    const auto subwin = static_cast<std::uint32_t>(
        in.peek(kFastBits + meta.bits) >> kFastBits);
    const FastEntry& sub = sub_[meta.offset + subwin];
    if (sub.len > 0) {
      in.skip(sub.len);
      return sub.symbol;
    }
  }
  return decode_slow(in);
}

namespace {

/// Writes `len` (>= kRunMin) copies of `code` at `dst`, eight at a time
/// when `room` allows the last group to spill past the run — the spill
/// lands in outputs later decodes overwrite.
inline void fill_run(std::uint32_t* dst, std::size_t len, std::size_t room,
                     std::uint32_t code) {
  if (room < len + kRunMin) {
    std::fill_n(dst, len, code);
    return;
  }
  for (std::size_t j = 0; j < len; j += kRunMin) {
    for (std::size_t l = 0; l < kRunMin; ++l) dst[j + l] = code;
  }
}

}  // namespace

void HuffmanDecoder::put_decoded(std::uint32_t symbol, util::BitReader& in,
                                 std::uint32_t* out, std::size_t& i,
                                 std::size_t n) const {
  if (symbol < token_base_) {
    out[i++] = symbol;
    return;
  }
  const int k = static_cast<int>(symbol - token_base_);
  const std::size_t len = (std::size_t{1} << k) | in.get(k);
  if (len > n - i) throw std::runtime_error("huffman: run token overruns the block");
  fill_run(out + i, len, n - i, run_code_);
  i += len;
}

void HuffmanDecoder::decode_run(util::BitReader& in, std::uint32_t* out,
                                std::size_t n) const {
  std::size_t i = 0;
  if (!pack_.empty()) {
    // Fast path preconditions: >= 64 bits left means the peeks below are
    // entirely real bits and the skips cannot cross the end, and room for
    // kPackSyms outputs means the branchless full-entry store is safe.
    while (i + kPackSyms <= n && in.bits_remaining() >= 64) {
      const auto window = static_cast<std::uint32_t>(in.peek(kFastBits));
      const PackEntry& e = pack_[window];
      if (e.bits != 0) {
        for (int s = 0; s < kPackSyms; ++s) out[i + s] = e.syms[s];
        i += e.nsyms;
        in.skip(e.bits);
        if (e.run != 0) {
          if (e.run > n - i) throw std::runtime_error("huffman: run token overruns the block");
          fill_run(out + i, e.run, n - i, run_code_);
          i += e.run;
        }
        continue;
      }
      // Not packable: decode()'s short-code step inlined on the window
      // already peeked; long codes and invalid prefixes take decode().
      const FastEntry& fe = fast_[window];
      if (fe.len == 0 || fe.len > kFastBits) {
        put_decoded(decode(in), in, out, i, n);
        continue;
      }
      if (fe.symbol < token_base_) {
        out[i++] = fe.symbol;
        in.skip(fe.len);
        continue;
      }
      // A short token codeword: it and its k length bits are all among
      // the 64 bits known present — the same bits decode() + get(k) read.
      const int k = static_cast<int>(fe.symbol - token_base_);
      const std::size_t len =
          (std::size_t{1} << k) | static_cast<std::size_t>(in.peek(fe.len + k) >> fe.len);
      in.skip(fe.len + k);
      if (len > n - i) throw std::runtime_error("huffman: run token overruns the block");
      fill_run(out + i, len, n - i, run_code_);
      i += len;
    }
  }
  // Tail (and the whole run at scalar dispatch): per-symbol decode, so
  // truncated or corrupt streams fail exactly like the scalar decoder.
  while (i < n) put_decoded(decode(in), in, out, i, n);
}

// Canonical decode, MSB-first code assembled bit by bit. Reached only for
// invalid prefixes and codes deeper than kFastBits + kSubBits (which the
// flattening fallback in huffman_code_lengths makes pathological-only).
std::uint32_t HuffmanDecoder::decode_slow(util::BitReader& in) const {
  std::uint32_t code = 0;
  for (int len = 1; len <= max_len_; ++len) {
    code = (code << 1) | static_cast<std::uint32_t>(in.get(1));
    const std::uint32_t count =
        first_index_[static_cast<std::size_t>(len) + 1] - first_index_[static_cast<std::size_t>(len)];
    if (count > 0 && code >= first_code_[static_cast<std::size_t>(len)] &&
        code - first_code_[static_cast<std::size_t>(len)] < count) {
      return symbols_[first_index_[static_cast<std::size_t>(len)] + code -
                      first_code_[static_cast<std::size_t>(len)]];
    }
  }
  throw std::runtime_error("huffman: invalid bitstream");
}

}  // namespace pcw::sz

// Canonical Huffman codec over 32-bit symbols.
//
// This is the entropy stage of the pcw::sz compressor, mirroring SZ's
// customized Huffman encoder: the alphabet is the quantization-code space
// (2 * radius, typically 65536), but only the codes that actually occur
// are present in the codebook. Canonical code assignment keeps the
// serialized codebook small (symbol + bit length per entry) and makes
// decoding table-driven.
//
// Run tokens (container v5) carry the sub-1-bit structure of smooth data,
// as cuSZ+ does: a run of kRunMin..kRunMax zero-residual codes (code ==
// radius) is one symbol 2 * radius + k, k = floor(log2 L), in the same
// shared codebook, followed in the stream by the k low bits of the run
// length L. See docs/sz_container_v5.md.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/bitstream.h"

namespace pcw::sz {

/// Frequency table entry for codebook construction.
struct SymbolCount {
  std::uint32_t symbol = 0;
  std::uint64_t count = 0;
};

/// Shortest run of zero-residual codes coded as a token, and the longest
/// one token covers (longer runs split into several tokens).
inline constexpr std::uint32_t kRunMin = 8;
inline constexpr std::uint32_t kRunMax = 4096;
/// Token symbols sit at 2 * radius + k for k = floor(log2 L) in
/// [kRunMinLog, kRunMaxLog]; the stream carries k raw length bits.
inline constexpr int kRunMinLog = 3;
inline constexpr int kRunMaxLog = 12;
/// No token symbols: the sentinel token base for legacy (v1–v4) streams.
inline constexpr std::uint64_t kNoRunTokens = std::numeric_limits<std::uint64_t>::max();
/// Largest radius whose token symbols still fit a u32 (readers reject
/// larger ones on token-bearing blobs).
inline constexpr std::uint32_t kMaxRunRadius = std::uint32_t{1} << 30;

/// Code alphabet size once token symbols are added: 2 * radius codes plus
/// the token symbols above them.
inline std::size_t run_alphabet(std::uint32_t radius) {
  return 2ull * radius + kRunMaxLog + 1;
}

class HuffmanEncoder {
 public:
  /// Builds a canonical codebook from symbol frequencies. Zero-count
  /// entries are ignored; an empty/all-zero table yields an empty book.
  explicit HuffmanEncoder(std::span<const SymbolCount> freqs);

  /// Appends the codeword for `symbol` (must be in the codebook).
  void encode(std::uint32_t symbol, util::BitWriter& out) const;

  /// Appends the codewords for a whole symbol run: the same bits as
  /// calling encode() per symbol. With a `token_base` (2 * radius),
  /// `symbols` is kern::symbol_pass output: each symbol >= token_base is
  /// followed by its run length, whose k low bits are written straight
  /// after the codeword. A byte-aligned writer takes the bulk loop, which
  /// encodes straight into the writer's bytes; an unaligned one takes the
  /// per-symbol path.
  void encode_all(std::span<const std::uint32_t> symbols, util::BitWriter& out,
                  std::uint64_t token_base = kNoRunTokens) const;

  /// Serializes the codebook (count + per-symbol {varint symbol, u8 len}).
  std::vector<std::uint8_t> serialize_codebook() const;

  /// Total encoded size in bits if each symbol s occurs freqs[s] times —
  /// used by the ratio model to cost a hypothetical encoding.
  std::uint64_t cost_bits(std::span<const SymbolCount> freqs) const;

  int max_code_length() const { return max_len_; }
  std::size_t distinct_symbols() const { return lengths_.size(); }

 private:
  friend class HuffmanDecoder;
  // Sorted by (length, symbol): canonical order.
  std::vector<std::uint32_t> symbols_;
  std::vector<std::uint8_t> lengths_;        // parallel to symbols_
  /// Entries code | len << 56. packed_[L] for L < kLengthWords is the
  /// length word L after a run token (k = floor(log2 L)): its k low bits.
  /// packed_[kLengthWords + s - min_sym_] is symbol s's codeword,
  /// bit-reversed for the LSB-first stream, and 0 when s is not in the
  /// book.
  static constexpr std::size_t kLengthWords = kRunMax + 1;
  std::uint32_t min_sym_ = 0;
  std::vector<std::uint64_t> packed_;
  int max_len_ = 0;
};

class HuffmanDecoder {
 public:
  /// Reconstructs the codebook from HuffmanEncoder::serialize_codebook
  /// output. Returns bytes consumed via `consumed`. A non-zero
  /// `run_radius` reads a run-token stream (container v5): symbols from
  /// 2 * run_radius up are tokens, and a codebook holding any symbol
  /// there that is not a valid token is rejected.
  HuffmanDecoder(std::span<const std::uint8_t> codebook, std::size_t* consumed,
                 std::uint32_t run_radius = 0);

  /// Decodes one codeword (a token's symbol, not its run).
  std::uint32_t decode(util::BitReader& in) const;

  /// Decodes `n` codes, expanding each run token into its run of
  /// run_radius codes (a run that would overrun `n` throws). Without
  /// tokens, equivalent to calling decode() n times — including on
  /// malformed input, where truncated or invalid streams fail at the
  /// same symbol with the same error. When the multi-symbol pack table
  /// is built (SIMD levels only, see build_pack_table) each table probe
  /// retires up to kPackSyms short codes at once; a packed run ends
  /// before a token, so both paths read the same bits.
  void decode_run(util::BitReader& in, std::uint32_t* out, std::size_t n) const;

  std::size_t distinct_symbols() const { return symbols_.size(); }

 private:
  static constexpr int kFastBits = 11;
  /// Second-level tables cover codes up to kFastBits + kSubBits long; only
  /// deeper (pathological) codes fall back to the per-bit canonical scan.
  static constexpr int kSubBits = 15;
  /// FastEntry::len marker: entry points into sub_meta_ via `symbol`.
  static constexpr std::uint8_t kSubMarker = 0xff;

  std::uint32_t decode_slow(util::BitReader& in) const;
  /// Stores `symbol` at out[i], or expands it when it is a run token.
  void put_decoded(std::uint32_t symbol, util::BitReader& in, std::uint32_t* out,
                   std::size_t& i, std::size_t n) const;

  /// First token symbol (2 * run_radius), kNoRunTokens for legacy streams.
  std::uint64_t token_base_ = kNoRunTokens;
  std::uint32_t run_code_ = 0;

  std::vector<std::uint32_t> symbols_;       // canonical order
  std::vector<std::uint8_t> lengths_;
  // Canonical decode tables per length (slow fallback only).
  std::vector<std::uint32_t> first_code_;    // index: length
  std::vector<std::uint32_t> first_index_;   // index into symbols_
  int max_len_ = 0;
  // Level 1: next kFastBits of the (LSB-first) stream -> symbol + length,
  // or a kSubMarker entry linking to a level-2 table for long codes.
  struct FastEntry {
    std::uint32_t symbol = 0;
    std::uint8_t len = 0;                    // 0 = invalid prefix (slow path)
  };
  std::vector<FastEntry> fast_;
  // Level 2: per long-code root prefix, a table over the following
  // `bits` stream bits. Stored concatenated in sub_.
  struct SubMeta {
    std::uint32_t offset = 0;                // into sub_
    std::uint8_t bits = 0;                   // table index width
  };
  std::vector<SubMeta> sub_meta_;
  std::vector<FastEntry> sub_;
  /// Symbols retired per pack-table probe. 7 u16 symbols + 2 counters +
  /// a run length = 18-byte entries, 36 KiB for the 2^kFastBits table.
  static constexpr int kPackSyms = 7;
  struct PackEntry {
    std::uint16_t syms[kPackSyms] = {};
    std::uint8_t nsyms = 0;
    std::uint8_t bits = 0;   // stream bits the entry consumes; 0 = not packable
    std::uint16_t run = 0;   // a run token's length after the symbols, or 0
  };
  /// Multi-symbol table over the same kFastBits window as fast_: every
  /// run of whole codes that provably fits the window, regardless of the
  /// (unknown) bits that follow. A run ends at a run token — taking it
  /// along, expanded, when its length bits lie inside the window too —
  /// and before symbols too wide for u16. Empty when disabled — scalar
  /// dispatch level or single-symbol books.
  std::vector<PackEntry> pack_;
  void build_pack_table();
};

/// Computes canonical code lengths for the given frequencies via the
/// standard two-queue/heap Huffman construction. Exposed for the ratio
/// model, which costs hypothetical codebooks without encoding.
std::vector<std::uint8_t> huffman_code_lengths(std::span<const SymbolCount> freqs);

}  // namespace pcw::sz

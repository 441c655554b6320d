// SIMD-dispatched inner kernels of the sz pipeline.
//
// Five kinds of kernel live behind this interface (docs/kernels.md):
//
//  * Lattice kernels (lattice_quantize / lattice_dequantize): the
//    dual-quantized Lorenzo predictor (Predictor::kLattice), the one every
//    spatial block is written with. Every value is first rounded onto the
//    lattice q = round(x / 2eb); the residual q - L(q) is then exact
//    integer arithmetic with no serial chain, so the encoder vectorizes
//    along rows, and the decoder is an integer prefix sum.
//  * Lane kernels (dequantize_lanes), decode-only: the classic Lorenzo
//    stencil (Predictor::kSpatial, written by earlier writers) predicts
//    from reconstructed neighbours, so its sweep carries a serial
//    dependency and cannot vectorize within one block. It vectorizes
//    *across* blocks instead: a lane batch runs W equal-shape blocks in
//    lockstep, each vector lane executing exactly the scalar operation
//    sequence of lorenzo_dequantize on its own block.
//  * Point kernels (temporal_*): the temporal delta predictor is
//    point-wise, so it vectorizes directly along the element axis.
//  * The symbol pass (symbol_pass): turns one block's codes into the
//    run-token symbol stream and counts it, finding runs with bit
//    arithmetic on 64-code equality masks.
//  * The Huffman pack loop (pack_symbols): the bulk loop of
//    HuffmanEncoder::encode_all, which turns that stream into bits.
//
// The contract for every kernel here: results are byte-identical at every
// dispatch level, for all inputs. SIMD changes speed, never bytes — the
// per-block outlier and quantization semantics are the container format.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sz/dims.h"
#include "util/uninit_vector.h"

namespace pcw::sz::kern {

/// Bound on any lane batch; callers size their pointer tables with this.
/// The AVX-512 kernels compile for up to 32 lanes and the AVX2 ones for
/// 16, but lane_width() is 16 at both levels: 32 AVX-512 lanes measured
/// no faster than 16 on 1x256x256 slabs.
inline constexpr int kMaxLanes = 64;

/// Lane and point kernels do their code arithmetic in 32 bits; radius
/// beyond this cap (far past SZ's default 32768) falls back to scalar.
inline constexpr std::uint32_t kLaneMaxRadius = 1u << 30;

/// Widest lane count of the active SIMD level (1 = no lane kernels; use
/// the scalar per-block path). The stencil sweep is latency-bound on its
/// per-block serial chain, so throughput scales with lane count — group
/// as many blocks as available, up to this.
int lane_width();

/// Lane-count granularity of the active SIMD level (the native vector
/// width in doubles; 1 when scalar). A batch's `lanes` must be a
/// multiple of this, between lane_granularity() and lane_width().
int lane_granularity();

/// One task of a lane-grouped walk over consecutive blocks: `count`
/// blocks from `first`, a lockstep lane batch when count > 1.
struct LaneGroup {
  std::size_t first = 0;
  int count = 1;
};

/// Splits `n` consecutive blocks into lockstep lane groups and singles;
/// the grouping rule of the stencil block decoder. From
/// each leading block `lead` the run takes blocks lead, lead + 1, ...
/// while `joins(lead, k)` accepts block lead + k as lane k (k = 0 asks
/// whether `lead` can lead a group at all), up to lane_width() lanes and
/// the blocks left. The run is rounded down to lane_granularity(), and
/// becomes a group when that leaves at least one granule and more than
/// one lane; otherwise `lead` runs alone. With no lane kernel at the
/// active level, or radius > kLaneMaxRadius, every block runs alone.
template <typename Joins>
std::vector<LaneGroup> lane_groups(std::size_t n, std::uint32_t radius, Joins&& joins) {
  std::vector<LaneGroup> groups;
  groups.reserve(n);
  const int w = lane_width();
  const int g = lane_granularity();
  std::size_t lead = 0;
  while (lead < n) {
    int run = 0;
    if (w > 1 && radius <= kLaneMaxRadius) {
      const int cap =
          static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(w), n - lead));
      while (run < cap && joins(lead, static_cast<std::size_t>(run))) ++run;
      run = (run / g) * g;
    }
    const int count = run >= g && run > 1 ? run : 1;
    groups.push_back({lead, count});
    lead += static_cast<std::size_t>(count);
  }
  return groups;
}

/// One lockstep dequantize batch; `out` receives lanes*bc reconstructed
/// elements in block order. Throws the scalar kernel's exact
/// underrun/overrun errors when an outlier run does not match its codes.
template <typename T>
struct DequantizeBatch {
  const std::uint32_t* const* codes = nullptr;  // per-lane inputs, bc each
  const std::span<const T>* outliers = nullptr;  // per-lane outlier runs
  std::size_t bc = 0;
  Dims dims;
  double eb = 0.0;
  std::uint32_t radius = 0;  // must be <= kLaneMaxRadius
  T* out = nullptr;          // lanes * bc elements
  int lanes = 0;             // multiple of lane_granularity(), <= lane_width()
};

/// Lockstep Lorenzo dequantize of `batch.lanes` blocks. Call only when
/// lane_width() > 1 and radius <= kLaneMaxRadius.
template <typename T>
void dequantize_lanes(const DequantizeBatch<T>& batch);

// ---- the lattice (dual-quantized Lorenzo) kernels ---------------------------

/// Values whose lattice coordinate |x / 2eb| exceeds this get q = 0 and
/// become outliers. The cap keeps q, and every stencil sum of seven q
/// terms, exact in int64 and in double.
inline constexpr double kLatticeCap = 1125899906842624.0;  // 2^50

/// The lattice coordinate of `x`: round-half-even(x * inv), where inv is
/// 1 / (2 * eb). Built only from the multiply and exact operations (a
/// truncating convert, the exact subtraction of the truncated value,
/// compares), so it reads no rounding mode. Non-finite values and values
/// past kLatticeCap map to 0. The encoder's vector kernels compute the
/// same function lane by lane; the decoder recovers an outlier's q from
/// its stored raw value with this one.
static inline std::int64_t lattice_point(double x, double inv) {
  const double v = x * inv;
  if (!(std::abs(v) <= kLatticeCap)) return 0;
  const auto t = static_cast<std::int64_t>(v);
  const double f = v - static_cast<double>(t);
  const bool odd = (t & 1) != 0;
  return t + ((f > 0.5 || (f == 0.5 && odd)) ? 1 : 0) -
         ((f < -0.5 || (f == -0.5 && odd)) ? 1 : 0);
}

/// One block of the lattice predictor: its extents, bound and radius,
/// and the caller's rolling predictor state (reused across blocks). The
/// stencil needs q of the previous plane and the x-differences of the
/// previous row, never q of the whole block.
struct LatticeBlock {
  Dims dims;
  double eb = 0.0;
  std::uint32_t radius = 0;
  std::int64_t* plane = nullptr;  // dims.d1 * dims.d2 entries when dims.d0 > 1
  std::int64_t* row = nullptr;    // dims.d2 entries when dims.d1 > 1
};

/// Quantizes one block (dims.count() values at `data`) with the lattice
/// predictor: q = lattice_point(x), residual r = q - L(q) with the 1-, 2-
/// or 3-D Lorenzo stencil L zero-padded at the block's faces. A point is
/// an outlier (code 0, raw value appended to `outliers`) when |r| >=
/// radius, q is capped, or its reconstruction T(q * 2eb) misses x by more
/// than eb; its neighbours still predict from its q. Otherwise its code
/// is r + radius. `recon` (optional, dims.count() values) receives what
/// the decoder reproduces. Any radius >= 2, identical bytes at every
/// dispatch level.
template <typename T>
void lattice_quantize(const T* data, const LatticeBlock& blk, std::uint32_t* codes,
                      std::vector<T>& outliers, T* recon);

/// Inverse of lattice_quantize: an integer prefix sum along each row
/// that writes dims.count() values to `out`. Throws std::runtime_error
/// when `outliers` does not match the code-0 count.
template <typename T>
void lattice_dequantize(const std::uint32_t* codes, std::span<const T> outliers,
                        const LatticeBlock& blk, T* out);

/// The symbol pass over one block's codes: rewrites `codes` in place into
/// the symbol stream the encoder codes and counts every emitted symbol
/// into `hist`. With `runs` (container v5 run tokens; radius <=
/// kMaxRunRadius), each maximal run of at least kRunMin zero-residual
/// codes (code == radius) becomes the pair {2 * radius + k, L} per
/// kRunMax-long piece, k = floor(log2 L), written where the run ends; a
/// leftover shorter than kRunMin stays as plain codes. Without, the codes
/// stay as they are and are only counted. Counts go to hist[symbol] for
/// plain codes and tokens, never for the length words (`hist` spans
/// run_alphabet(radius) entries with runs, 2 * radius without, and is
/// not cleared). Returns the tokens' raw length bits. Run detection is
/// bit arithmetic on 64-code equality masks (src/sz/symbols_impl.h), so
/// no code is branched on; integer-only, identical at every level.
template <typename Count>
std::uint64_t symbol_pass(util::UninitVector<std::uint32_t>& codes, std::uint32_t radius,
                          bool runs, Count* hist);

/// Where pack_symbols stopped: the end of the whole bytes it stored, and
/// the 0..7 stream bits still pending.
struct PackTail {
  std::uint8_t* end = nullptr;
  std::uint64_t bits = 0;
  int nbits = 0;
};

/// The bulk loop of HuffmanEncoder::encode_all (src/sz/pack_impl.h):
/// writes the codewords of n symbols, symbol_pass output with
/// `token_base` (or plain codes, token_base = kNoRunTokens), LSB-first
/// from `out`. Entries are code | len << 56; `table` holds the entry of
/// the length word L at table[L] and that of symbol s at table[s +
/// offset] (u32 arithmetic). `out` has room for the stream's whole bytes
/// plus 8, which the loop stores past its end. Integer-only, identical at
/// every level.
PackTail pack_symbols(const std::uint32_t* symbols, std::size_t n,
                      std::span<const std::uint64_t> table, std::uint32_t offset,
                      std::uint64_t token_base, std::uint8_t* out);

/// Temporal (point-wise) quantize of the whole range: x - prev quantized
/// to an integer multiple of 2 * eb, with the lattice kernels' code and
/// outlier conventions; `recon` receives what the decoder reproduces.
/// Always available (internally SIMD or scalar — identical bytes either
/// way).
template <typename T>
void temporal_quantize(const T* data, const T* prev, std::size_t n, double eb,
                       std::uint32_t radius, std::uint32_t* codes,
                       std::vector<T>& outliers, T* recon);

/// Temporal (point-wise) dequantize of one code range against its
/// reference slice, consuming outliers from position `k` onward. Always
/// available (internally SIMD or scalar — identical bytes either way);
/// returns false on outlier underrun with `k` at the failure point.
/// Shared by temporal_dequantize and the decompress_region row scatter.
template <typename T>
bool temporal_dequant_range(const std::uint32_t* codes, const T* prev, T* out,
                            std::size_t n, std::span<const T> outliers,
                            std::size_t& k, double eb, std::uint32_t radius);

// ---- the scalar temporal point loops ----------------------------------------
//
// Written once: they are the scalar path of the two kernels above, the
// tails of their SIMD versions and the SIMD dequantize's outlier-bearing
// chunks. `static`, so every TU — each ISA TU compiled with its own
// flags — keeps its own copy, and the linker can never hand one ISA's
// code to another's call path.

/// Scalar body of temporal_quantize over [0, n).
template <typename T>
static inline void temporal_quantize_points(const T* data, const T* prev, std::size_t n,
                                            double eb, std::uint32_t radius,
                                            std::uint32_t* codes, std::vector<T>& outliers,
                                            T* recon) {
  const double twice_eb = 2.0 * eb;
  const auto r = static_cast<long long>(radius);
  const auto max_q = static_cast<double>(r - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double orig = static_cast<double>(data[i]);
    const double pred = static_cast<double>(prev[i]);
    const double scaled = (orig - pred) / twice_eb;
    bool predictable = std::abs(scaled) <= max_q;
    long long q = 0;
    double rec = 0.0;
    if (predictable) {
      q = std::llround(scaled);
      rec = pred + static_cast<double>(q) * twice_eb;
      // Same storage-precision check as the Lorenzo quantizer: the decoder
      // reproduces T(rec), so the bound must survive the narrowing.
      predictable = std::abs(static_cast<double>(static_cast<T>(rec)) - orig) <= eb;
    }
    if (predictable) {
      codes[i] = static_cast<std::uint32_t>(q + r);
      recon[i] = static_cast<T>(rec);
    } else {
      codes[i] = 0;
      outliers.push_back(data[i]);
      recon[i] = data[i];
    }
  }
}

/// Scalar body of temporal_dequant_range over [0, n).
template <typename T>
static inline bool temporal_dequant_points(const std::uint32_t* codes, const T* prev,
                                           T* out, std::size_t n,
                                           std::span<const T> outliers, std::size_t& k,
                                           double eb, std::uint32_t radius) {
  const double twice_eb = 2.0 * eb;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t code = codes[i];
    if (code == 0) {
      if (k >= outliers.size()) return false;
      out[i] = outliers[k++];
    } else {
      const auto q = static_cast<long long>(code) - static_cast<long long>(radius);
      out[i] = static_cast<T>(static_cast<double>(prev[i]) +
                              static_cast<double>(q) * twice_eb);
    }
  }
  return true;
}

}  // namespace pcw::sz::kern

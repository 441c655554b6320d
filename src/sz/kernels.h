// SIMD-dispatched inner kernels of the sz pipeline.
//
// Two kinds of kernel live behind this interface (docs/kernels.md):
//
//  * Lane kernels (quantize_lanes / dequantize_lanes): the Lorenzo sweep
//    carries a serial dependency — every prediction reads reconstructed
//    neighbours written moments earlier — so it cannot vectorize within
//    one block. It vectorizes *across* blocks instead: split_blocks
//    yields independent equal-shape slabs, and a lane batch runs W of
//    them in lockstep, each vector lane executing exactly the scalar
//    operation sequence on its own block.
//  * Point kernels (temporal_*): the temporal delta predictor is
//    point-wise, so it vectorizes directly along the element axis.
//
// The contract for every kernel here: results are byte-identical to the
// scalar reference in lorenzo.cc / temporal.cc, for all inputs. SIMD
// changes speed, never bytes — the per-block outlier and quantization
// semantics are the container format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sz/dims.h"

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
/// the scalar per-block path). The Lorenzo sweep is latency-bound on its
/// per-block serial chain, so throughput scales with lane count — group
/// as many blocks as available, up to this.
int lane_width();

/// Lane-count granularity of the active SIMD level (the native vector
/// width in doubles; 1 when scalar). A batch's `lanes` must be a
/// multiple of this, between lane_granularity() and lane_width().
int lane_granularity();

/// One lockstep quantize batch: `lanes` equal-shape blocks stored
/// consecutively (block l spans data[l*bc, (l+1)*bc)).
template <typename T>
struct QuantizeBatch {
  const T* data = nullptr;                // lanes * bc elements
  std::size_t bc = 0;                     // elements per block
  Dims dims;                              // per-block extents
  double eb = 0.0;
  std::uint32_t radius = 0;               // must be <= kLaneMaxRadius
  std::uint32_t* const* codes = nullptr;  // per-lane outputs, bc each
  std::vector<T>* const* outliers = nullptr;  // per-lane outlier vectors
  T* recon = nullptr;  // optional lanes*bc reconstruction, or nullptr
  /// Optional code histogram (2 * radius entries), shared by all lanes
  /// and added to while the codes are still tile-resident, sparing the
  /// caller a separate full pass over them.
  std::uint64_t* hist = nullptr;
  int lanes = 0;       // multiple of lane_granularity(), <= lane_width()
};

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

/// Lockstep Lorenzo quantize of `batch.lanes` blocks. Call only when
/// lane_width() > 1 and radius <= kLaneMaxRadius.
template <typename T>
void quantize_lanes(const QuantizeBatch<T>& batch);

/// Lockstep Lorenzo dequantize of `batch.lanes` blocks. Same gates.
template <typename T>
void dequantize_lanes(const DequantizeBatch<T>& batch);

/// Vectorized temporal (point-wise) quantize of the whole range. Returns
/// false — leaving all outputs untouched — when the active level is
/// scalar or radius exceeds the lane cap; the caller then runs its
/// scalar loop.
template <typename T>
bool try_temporal_quantize(const T* data, const T* prev, std::size_t n, double eb,
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

}  // namespace pcw::sz::kern

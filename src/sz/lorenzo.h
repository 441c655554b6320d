// Lorenzo prediction + error-bounded linear quantization.
//
// This is the decorrelation stage of the pcw::sz compressor, matching the
// structure of SZ's "best-fit" default path:
//   * each point is predicted from already-reconstructed neighbours
//     (1-, 2- or 3-D Lorenzo stencil, zero-padded at boundaries),
//   * the prediction residual is quantized to an integer multiple of
//     2*error_bound,
//   * residuals outside the bounded codebook (|q| >= radius) fall back to
//     storing the raw value ("unpredictable data" in SZ terminology).
//
// Predicting from *reconstructed* values — not originals — is what makes
// the point-wise error bound compose: every reconstructed neighbour is
// itself within eb of its original, and the quantizer re-centres on the
// actual prediction each step, so |recon - orig| <= eb holds point-wise.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sz/blocks.h"
#include "sz/dims.h"

namespace pcw::sz {

/// Quantization-code alphabet: code 0 marks an unpredictable point whose
/// raw value is stored in `outliers`; codes [1, 2*radius-1] encode the
/// signed residual q = code - radius.
template <typename T>
struct QuantizeResult {
  std::vector<std::uint32_t> codes;  // one per input point
  std::vector<T> outliers;           // raw values of code==0 points, in order
  /// The reconstruction the decompressor will reproduce, bit for bit. The
  /// quantizer computes it anyway (predictions come from reconstructed
  /// neighbours); exporting it lets the time-series writer keep the
  /// decoded step as the next temporal reference without a decode pass.
  std::vector<T> recon;
};

/// Quantizes `data` with point-wise absolute error bound `eb`.
/// radius must be >= 2; SZ's default 32768 gives a 65536-code alphabet.
template <typename T>
QuantizeResult<T> lorenzo_quantize(std::span<const T> data, const Dims& dims,
                                   double eb, std::uint32_t radius);

/// Inverse transform. `out` must have dims.count() elements.
template <typename T>
void lorenzo_dequantize(std::span<const std::uint32_t> codes,
                        std::span<const T> outliers, const Dims& dims, double eb,
                        std::uint32_t radius, std::span<T> out);

/// Quantizes a whole split_blocks() decomposition of `data`. Byte-for-byte
/// the same codes/outliers as calling lorenzo_quantize per block, but runs
/// lane_width() equal-shape consecutive blocks in SIMD lockstep when the
/// active dispatch level allows (src/sz/kernels.h; leftover and non-uniform
/// blocks take the scalar kernel), and fans tasks across `threads`.
///
/// Differences from the per-block API, for the sake of the hot path: the
/// returned results always have empty `recon` vectors; the reconstruction
/// instead lands in `recon_out` (full-field length, block slices disjoint)
/// when it is non-null, so compress never holds a second field copy.
///
/// When `counts` is non-empty (2 * radius entries) it receives the code
/// histogram summed over every block — identical counts to a separate
/// pass over the codes, but accumulated while the codes are still
/// cache-resident in the kernel's staging tiles. A plain integer sum, so
/// it does not depend on `threads`.
template <typename T>
std::vector<QuantizeResult<T>> lorenzo_quantize_blocks(
    std::span<const T> data, std::span<const BlockRange> blocks, double eb,
    std::uint32_t radius, unsigned threads, T* recon_out = nullptr,
    std::span<std::uint64_t> counts = {});

}  // namespace pcw::sz

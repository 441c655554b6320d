// Sampling-based compression-ratio (bit-rate) prediction.
//
// Re-implements the ratio-quality model of Jin et al. [25] that the paper
// builds on: instead of compressing a partition to learn its size, we
//   1. sample a small fraction of the partition in contiguous boxes whose
//      rows run along the fastest axis and whose planes line up with the
//      encoder's slab blocks,
//   2. quantize each box in isolation (zero-padded at its own faces)
//      through the compressor's own lattice (dual-quantized Lorenzo)
//      kernel, sz::lattice_quantize_blocks,
//   3. code runs of zero-residual codes as run tokens with the encoder's
//      own tokenizer, sz::tokenize_runs,
//   4. cost a hypothetical Huffman codebook over the sampled, tokenized
//      histogram plus the tokens' raw length bits,
// which yields a predicted bit-rate at a few percent of compression cost.
//
// Like the original model, accuracy degrades at very high ratios (> 32x,
// i.e. bit-rate < 1): there the size is dominated by how long the
// zero-residual runs are, and a sample sees only runs that fit inside
// one of its boxes. The paper's Eq. (3) widens the reserved extra space
// in exactly this regime; see model/extra_space.h.
#pragma once

#include <cstddef>
#include <span>

#include "sz/compressor.h"
#include "sz/dims.h"

namespace pcw::model {

struct RatioEstimate {
  double bit_rate = 0.0;          // predicted bits per element
  double ratio = 0.0;             // predicted original/compressed ratio
  double outlier_fraction = 0.0;  // predicted unpredictable-point fraction
  std::size_t sampled_points = 0; // how many points the estimate used
  /// Predicted Huffman-stage bits per element, run tokens and their
  /// length bits included.
  double huffman_bit_rate = 0.0;
};

struct RatioModelConfig {
  /// Fraction of points to sample; the paper targets <10% of compression
  /// time for the whole prediction phase.
  double sample_fraction = 0.03;
};

/// Sampled box: kBoxRows rows of up to kBoxRowLen elements along the
/// fastest axis (2-D and 3-D fields; in 3-D as many planes thick as the
/// encoder's slab blocks), or a run of kBoxLen1d elements (1-D fields).
/// Long rows keep the sampled runs of zero-residual codes as long as the
/// encoder sees them.
inline constexpr std::size_t kBoxRows = 4;
inline constexpr std::size_t kBoxRowLen = 256;
inline constexpr std::size_t kBoxLen1d = 1024;
/// Floor on the sampled points: a small partition's sample_fraction would
/// see too few distinct codes to cost its codebook (a few microseconds of
/// work).
inline constexpr std::size_t kMinSamplePoints = 2048;

/// Predicts the compressed bit-rate of `data` under `params` without
/// compressing it.
template <typename T>
RatioEstimate estimate_ratio(std::span<const T> data, const sz::Dims& dims,
                             const sz::Params& params,
                             const RatioModelConfig& config = {});

}  // namespace pcw::model

// Sampling-based compression-ratio (bit-rate) prediction.
//
// Re-implements the ratio-quality model of Jin et al. [25] that the paper
// builds on: instead of compressing a partition to learn its size, we
//   1. sample a small fraction of the partition in contiguous blocks,
//   2. quantize each block in isolation (zero-padded at its own faces)
//      through the compressor's own Lorenzo kernel,
//      sz::lorenzo_quantize_blocks, which runs equal-shape samples as
//      lockstep SIMD lane groups,
//   3. cost a hypothetical Huffman codebook over the sampled
//      quantization-code histogram,
//   4. estimate the LZ back-end gain from run-length structure of the
//      sampled code stream,
// which yields a predicted bit-rate at a few percent of compression cost.
//
// Like the original model, accuracy degrades at very high ratios (> 32x,
// i.e. bit-rate < 1): there the final size is dominated by how well LZ
// collapses near-constant Huffman output, which run-length analysis only
// approximates. The paper's Eq. (3) widens the reserved extra space in
// exactly this regime; see model/extra_space.h.
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
  double huffman_bit_rate = 0.0;  // pre-LZ entropy-stage estimate
  double lz_gain = 1.0;           // predicted LZ shrink factor (<= 1)
};

struct RatioModelConfig {
  /// Fraction of points to sample; the paper targets <10% of compression
  /// time for the whole prediction phase.
  double sample_fraction = 0.03;
  /// Sampled block edge (3-D) / block length (1-D).
  std::size_t block_edge = 8;
  std::size_t block_len_1d = 512;
  /// Runs of identical codes at least this long are assumed LZ-collapsible.
  std::size_t min_lz_run = 16;
};

/// Predicts the compressed bit-rate of `data` under `params` without
/// compressing it.
template <typename T>
RatioEstimate estimate_ratio(std::span<const T> data, const sz::Dims& dims,
                             const sz::Params& params,
                             const RatioModelConfig& config = {});

}  // namespace pcw::model

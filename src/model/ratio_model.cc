#include "model/ratio_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sz/huffman.h"
#include "sz/lorenzo.h"
#include "util/trace.h"

namespace pcw::model {

template <typename T>
RatioEstimate estimate_ratio(std::span<const T> data, const sz::Dims& dims,
                             const sz::Params& params,
                             const RatioModelConfig& config) {
  util::trace::Span span("estimate", "model");
  const double eb = sz::resolve_error_bound<T>(data, params);
  const std::size_t total = dims.count();

  // Block grid.
  const bool is_multidim = dims.rank() >= 2;
  const std::size_t bx = is_multidim ? std::min(config.block_edge, dims.d0) : 1;
  const std::size_t by = is_multidim ? std::min(config.block_edge, dims.d1) : 1;
  const std::size_t bz =
      is_multidim ? std::min(config.block_edge, dims.d2) : std::min(config.block_len_1d, dims.d2);
  const std::size_t gx = (dims.d0 + bx - 1) / bx;
  const std::size_t gy = (dims.d1 + by - 1) / by;
  const std::size_t gz = (dims.d2 + bz - 1) / bz;
  const std::size_t total_blocks = gx * gy * gz;
  const std::size_t block_points = bx * by * bz;
  std::size_t want_blocks = static_cast<std::size_t>(
      std::ceil(config.sample_fraction * static_cast<double>(total) /
                static_cast<double>(block_points)));
  want_blocks = std::clamp<std::size_t>(want_blocks, 1, total_blocks);
  // Prime-ish stride decorrelates the sample from periodic structure.
  const std::size_t stride = std::max<std::size_t>(1, total_blocks / want_blocks);

  // Gather the sampled blocks, in grid order, into one contiguous buffer
  // and quantize each in isolation (zero-padded at its own faces) with
  // the compressor's kernel: consecutive equal-shape blocks run as one
  // lockstep lane group.
  std::vector<sz::BlockRange> blocks;
  std::vector<T> samples;
  samples.reserve((total_blocks + stride - 1) / stride * block_points);
  const std::size_t sx = dims.d1 * dims.d2;
  for (std::size_t b = 0; b < total_blocks; b += stride) {
    const std::size_t ix = b / (gy * gz);
    const std::size_t iy = (b / gz) % gy;
    const std::size_t iz = b % gz;
    const std::size_t x0 = ix * bx, y0 = iy * by, z0 = iz * bz;
    const sz::Dims bd{std::min(bx, dims.d0 - x0), std::min(by, dims.d1 - y0),
                      std::min(bz, dims.d2 - z0)};
    blocks.push_back({samples.size(), bd});
    for (std::size_t x = 0; x < bd.d0; ++x) {
      for (std::size_t y = 0; y < bd.d1; ++y) {
        const T* row = data.data() + (x0 + x) * sx + (y0 + y) * dims.d2 + z0;
        samples.insert(samples.end(), row, row + bd.d2);
      }
    }
  }
  const std::size_t points = samples.size();
  span.set_arg("points", points);
  std::vector<std::uint64_t> counts(2ull * params.radius, 0);
  const auto quants = sz::lorenzo_quantize_blocks<T>(samples, blocks, eb, params.radius,
                                                     /*threads=*/1, nullptr, counts);

  std::uint64_t outliers = 0, run_saved = 0;
  for (const auto& q : quants) {
    outliers += q.outliers.size();
    // Run-length structure: codes repeated >= min_lz_run times produce
    // byte-periodic Huffman output the LZ stage collapses. Count the codes
    // covered by such runs (minus a fixed anchor per run that LZ still
    // spends tokens on).
    const std::vector<std::uint32_t>& codes = q.codes;
    std::size_t run_start = 0;
    for (std::size_t k = 1; k <= codes.size(); ++k) {
      if (k == codes.size() || codes[k] != codes[run_start]) {
        const std::size_t len = k - run_start;
        if (len >= config.min_lz_run && len > 8) run_saved += len - 8;
        run_start = k;
      }
    }
  }

  RatioEstimate est;
  est.sampled_points = points;
  if (points == 0) return est;
  est.outlier_fraction = static_cast<double>(outliers) / static_cast<double>(points);

  // Hypothetical Huffman cost over the sampled histogram.
  std::vector<sz::SymbolCount> freqs;
  std::uint64_t distinct = 0;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) {
      freqs.push_back({s, counts[s]});
      ++distinct;
    }
  }
  const auto lengths = sz::huffman_code_lengths(freqs);
  std::uint64_t huff_bits = 0;
  double saved_bits = 0.0;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    huff_bits += freqs[k].count * lengths[k];
  }
  est.huffman_bit_rate = static_cast<double>(huff_bits) / static_cast<double>(points);

  // LZ gain: codes inside long runs compress to (almost) nothing; weight
  // the saved codes by the *modal* code length since runs are
  // overwhelmingly the zero-residual code.
  std::uint8_t modal_len = 8;
  std::uint64_t modal_count = 0;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    if (freqs[k].count > modal_count) {
      modal_count = freqs[k].count;
      modal_len = lengths[k];
    }
  }
  saved_bits = static_cast<double>(run_saved) * static_cast<double>(modal_len);
  if (params.lossless && huff_bits > 0) {
    est.lz_gain = std::clamp(1.0 - saved_bits / static_cast<double>(huff_bits), 0.02, 1.0);
  }

  // Per-partition overheads amortized over the full partition, not the
  // sample: serialized codebook (~3 bytes/distinct symbol) + container
  // header (~64 bytes).
  const double overhead_bits =
      (static_cast<double>(distinct) * 24.0 + 64.0 * 8.0) / static_cast<double>(total);
  const double outlier_raw_bits = est.outlier_fraction * 8.0 * sizeof(T);

  est.bit_rate = est.huffman_bit_rate * est.lz_gain + outlier_raw_bits + overhead_bits;
  est.bit_rate = std::max(est.bit_rate, 0.05);
  est.ratio = 8.0 * sizeof(T) / est.bit_rate;
  return est;
}

template RatioEstimate estimate_ratio<float>(std::span<const float>, const sz::Dims&,
                                             const sz::Params&, const RatioModelConfig&);
template RatioEstimate estimate_ratio<double>(std::span<const double>, const sz::Dims&,
                                              const sz::Params&, const RatioModelConfig&);

}  // namespace pcw::model

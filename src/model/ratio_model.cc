#include "model/ratio_model.h"

#include <algorithm>
#include <bit>
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

  // Box grid: a box's rows run along the fastest axis, and in 3-D it is
  // exactly as thick as the encoder's slab blocks and aligned to them, so
  // each sampled plane sees the stencil its block does (a block's first
  // plane is zero-padded).
  const bool is_multidim = dims.rank() >= 2;
  const std::size_t bx = dims.d0 > 1 ? sz::split_blocks(dims).front().dims.d0 : 1;
  const std::size_t by = is_multidim ? std::min(kBoxRows, dims.d1) : 1;
  const std::size_t bz = std::min(is_multidim ? kBoxRowLen : kBoxLen1d, dims.d2);
  const std::size_t gx = (dims.d0 + bx - 1) / bx;
  const std::size_t gy = (dims.d1 + by - 1) / by;
  const std::size_t gz = (dims.d2 + bz - 1) / bz;
  const std::size_t total_blocks = gx * gy * gz;
  const std::size_t block_points = bx * by * bz;
  const double want_points = std::max(config.sample_fraction * static_cast<double>(total),
                                      static_cast<double>(kMinSamplePoints));
  std::size_t want_blocks =
      static_cast<std::size_t>(std::ceil(want_points / static_cast<double>(block_points)));
  want_blocks = std::clamp<std::size_t>(want_blocks, 1, total_blocks);
  // Prime-ish stride decorrelates the sample from periodic structure.
  const std::size_t stride = std::max<std::size_t>(1, total_blocks / want_blocks);

  // Gather the sampled boxes, in grid order, into one contiguous buffer
  // and quantize each in isolation (zero-padded at its own faces) with
  // the compressor's lattice kernel, so the writer and the model share
  // one quantizer.
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
  // Run tokens, as the encoder codes them: the absorbed zero-residual
  // codes leave the histogram, the tokens join it, and each token adds
  // its raw length bits.
  const bool runs = sz::uses_run_tokens(params);
  std::vector<std::uint64_t> counts(
      runs ? sz::run_alphabet(params.radius) : 2ull * params.radius, 0);
  auto quants = sz::lattice_quantize_blocks<T>(
      samples, blocks, eb, params.radius, /*threads=*/1, nullptr,
      std::span<std::uint64_t>(counts).first(2ull * params.radius));
  std::uint64_t outliers = 0, length_bits = 0;
  for (auto& q : quants) {
    outliers += q.outliers.size();
    if (runs) {
      const sz::RunTokenStats stats = sz::tokenize_runs(q.codes, params.radius);
      stats.fold_into(std::span<std::uint64_t>(counts), params.radius);
      length_bits += stats.length_bits();
    }
  }

  RatioEstimate est;
  est.sampled_points = points;
  if (points == 0) return est;
  est.outlier_fraction = static_cast<double>(outliers) / static_cast<double>(points);

  // Hypothetical Huffman cost over the sampled, tokenized histogram.
  std::vector<sz::SymbolCount> freqs;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) freqs.push_back({s, counts[s]});
  }
  const auto lengths = sz::huffman_code_lengths(freqs);
  std::uint64_t huff_bits = length_bits;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    huff_bits += freqs[k].count * lengths[k];
  }
  est.huffman_bit_rate = static_cast<double>(huff_bits) / static_cast<double>(points);

  // Per-partition overheads amortized over the full partition, not the
  // sample: the serialized codebook of the sampled symbols (a varint
  // symbol and a length byte each) + container header (~64 bytes).
  std::size_t codebook_bytes = 5;  // the entry-count varint, at most
  for (const sz::SymbolCount& f : freqs) {
    codebook_bytes += static_cast<std::size_t>(std::bit_width(f.symbol | 1u) + 6) / 7 + 1;
  }
  const double overhead_bits =
      8.0 * static_cast<double>(codebook_bytes + 64) /
      static_cast<double>(total);
  const double outlier_raw_bits = est.outlier_fraction * 8.0 * sizeof(T);

  est.bit_rate = est.huffman_bit_rate + outlier_raw_bits + overhead_bits;
  est.bit_rate = std::max(est.bit_rate, 0.05);
  est.ratio = 8.0 * sizeof(T) / est.bit_rate;
  return est;
}

template RatioEstimate estimate_ratio<float>(std::span<const float>, const sz::Dims&,
                                             const sz::Params&, const RatioModelConfig&);
template RatioEstimate estimate_ratio<double>(std::span<const double>, const sz::Dims&,
                                              const sz::Params&, const RatioModelConfig&);

}  // namespace pcw::model

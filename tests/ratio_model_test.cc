#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/workloads.h"
#include "model/ratio_model.h"
#include "pcw/telemetry.h"
#include "sz/compressor.h"
#include "sz/huffman.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/trace.h"

namespace pcw::model {
namespace {

double actual_bit_rate(const std::vector<float>& data, const sz::Dims& dims,
                       const sz::Params& p) {
  const auto blob = sz::compress<float>(data, dims, p);
  return sz::bit_rate(blob.size(), data.size());
}

TEST(RatioModel, MidRangeAccuracyAbove90Percent) {
  // The paper cites [25]: ratio-estimation accuracy consistently above
  // 90%. Check on a Nyx-like field at moderate ratios (4x..20x).
  const sz::Dims dims = sz::Dims::make_3d(64, 64, 64);
  const auto data = data::make_nyx_field(dims, data::NyxField::kBaryonDensity, 42);
  for (const double eb : {0.05, 0.2, 1.0}) {
    sz::Params p;
    p.error_bound = eb;
    const auto est = estimate_ratio<float>(data, dims, p);
    const double actual = actual_bit_rate(data, dims, p);
    if (actual >= 1.0) {  // the model's stated validity region
      EXPECT_NEAR(est.bit_rate, actual, 0.30 * actual)
          << "eb=" << eb << " actual=" << actual;
    }
  }
}

TEST(RatioModel, PredictionIsMonotoneInErrorBound) {
  const sz::Dims dims = sz::Dims::make_3d(48, 48, 48);
  const auto data = data::make_nyx_field(dims, data::NyxField::kTemperature, 7);
  double prev = 0.0;
  for (const double eb : {1e4, 1e3, 1e2, 1e1}) {
    sz::Params p;
    p.error_bound = eb;
    const auto est = estimate_ratio<float>(data, dims, p);
    EXPECT_GT(est.bit_rate, prev) << "eb=" << eb;
    prev = est.bit_rate;
  }
}

TEST(RatioModel, SamplesOnlyRequestedFraction) {
  const sz::Dims dims = sz::Dims::make_3d(64, 64, 64);
  const auto data = data::make_nyx_field(dims, data::NyxField::kVelocityX, 9);
  RatioModelConfig cfg;
  cfg.sample_fraction = 0.02;
  sz::Params p;
  p.error_bound = 1e5;
  const auto est = estimate_ratio<float>(data, dims, p, cfg);
  EXPECT_GT(est.sampled_points, 0u);
  EXPECT_LT(static_cast<double>(est.sampled_points),
            0.10 * static_cast<double>(dims.count()));
}

TEST(RatioModel, OutlierFractionReflectsData) {
  // White noise with a tight bound and tiny radius-equivalent ratio: many
  // unpredictable points expected.
  const sz::Dims dims = sz::Dims::make_3d(32, 32, 32);
  std::vector<float> noise(dims.count());
  std::uint64_t state = 99;
  for (auto& x : noise) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    x = static_cast<float>(static_cast<double>(state >> 11) * 0x1.0p-53 * 2e6 - 1e6);
  }
  sz::Params p;
  p.error_bound = 1e-6;
  p.radius = 8;
  const auto est = estimate_ratio<float>(noise, dims, p);
  EXPECT_GT(est.outlier_fraction, 0.3);

  const auto smooth = data::make_nyx_field(dims, data::NyxField::kVelocityY, 3);
  sz::Params p2;
  p2.error_bound = 2e5;
  const auto est2 = estimate_ratio<float>(smooth, dims, p2);
  EXPECT_LT(est2.outlier_fraction, 0.05);
}

TEST(RatioModel, LzGainOnlyClaimedWhenRunsExist) {
  const sz::Dims dims = sz::Dims::make_3d(32, 32, 32);
  // Constant field: everything is one long zero-residual run.
  const std::vector<float> constant(dims.count(), 2.0f);
  sz::Params p;
  p.error_bound = 1e-3;
  const auto est = estimate_ratio<float>(constant, dims, p);
  EXPECT_LT(est.lz_gain, 0.5);

  // Rough field: runs are rare; predicted gain should be near 1.
  std::vector<float> rough(dims.count());
  std::uint64_t state = 5;
  for (auto& x : rough) {
    state = state * 2862933555777941757ull + 3037000493ull;
    x = static_cast<float>(static_cast<double>(state >> 11) * 0x1.0p-53);
  }
  sz::Params p2;
  p2.error_bound = 1e-5;
  const auto est2 = estimate_ratio<float>(rough, dims, p2);
  EXPECT_GT(est2.lz_gain, 0.9);
}

TEST(RatioModel, HighRatioRegimeKnownToDegrade) {
  // The paper's §III-D: above ~32x the model underestimates reality less
  // reliably. We only assert the estimate stays within a loose 2x band —
  // the extra-space policy (Eq. 3) owns this regime.
  const sz::Dims dims = sz::Dims::make_3d(64, 64, 64);
  const auto data = data::make_nyx_field(dims, data::NyxField::kVelocityZ, 11);
  sz::Params p;
  p.error_bound = 5e5;  // very loose
  const auto est = estimate_ratio<float>(data, dims, p);
  const double actual = actual_bit_rate(data, dims, p);
  EXPECT_GT(est.bit_rate, actual * 0.4);
  EXPECT_LT(est.bit_rate, actual * 2.5);
}

TEST(RatioModel, WorksOn1DParticleData) {
  const auto data = data::make_vpic_field(1 << 18, data::VpicField::kUx, 4);
  const sz::Dims dims = sz::Dims::make_1d(data.size());
  sz::Params p;
  p.error_bound = data::vpic_field_info(data::VpicField::kUx).abs_error_bound;
  const auto est = estimate_ratio<float>(data, dims, p);
  const double actual = actual_bit_rate(data, dims, p);
  EXPECT_NEAR(est.bit_rate, actual, 0.35 * actual);
}

TEST(RatioModel, RatioAndBitRateConsistent) {
  const sz::Dims dims = sz::Dims::make_3d(32, 32, 32);
  const auto data = data::make_nyx_field(dims, data::NyxField::kBaryonDensity, 17);
  sz::Params p;
  p.error_bound = 0.2;
  const auto est = estimate_ratio<float>(data, dims, p);
  EXPECT_NEAR(est.ratio * est.bit_rate, 32.0, 1e-9);
}

TEST(RatioModel, DeterministicEstimates) {
  const sz::Dims dims = sz::Dims::make_3d(32, 32, 32);
  const auto data = data::make_nyx_field(dims, data::NyxField::kTemperature, 23);
  sz::Params p;
  p.error_bound = 1e3;
  const auto a = estimate_ratio<float>(data, dims, p);
  const auto b = estimate_ratio<float>(data, dims, p);
  EXPECT_DOUBLE_EQ(a.bit_rate, b.bit_rate);
}

class RatioModelFieldSweep : public ::testing::TestWithParam<int> {};

TEST_P(RatioModelFieldSweep, PaperBoundsAccuracyAcrossNyxFields) {
  // The engine relies on the model for offsets on all 6 primary fields at
  // the paper's bounds; each must land within the extra-space margin the
  // planner applies (r_space up to 2.0 in the boosted regime).
  const auto field = static_cast<data::NyxField>(GetParam());
  const sz::Dims dims = sz::Dims::make_3d(48, 48, 48);
  const auto data = data::make_nyx_field(dims, field, 1234);
  sz::Params p;
  p.error_bound = data::nyx_field_info(field).abs_error_bound;
  const auto est = estimate_ratio<float>(data, dims, p);
  const double actual = actual_bit_rate(data, dims, p);
  // Reserved = predicted * r_space must cover the actual size for most
  // partitions: require predicted >= 0.5 * actual (Eq. 3 doubles the rest).
  EXPECT_GT(est.bit_rate, 0.5 * actual) << data::nyx_field_info(field).name;
  EXPECT_LT(est.bit_rate, 2.0 * actual) << data::nyx_field_info(field).name;
}

INSTANTIATE_TEST_SUITE_P(NyxFields, RatioModelFieldSweep,
                         ::testing::Range(0, data::kNyxPrimaryFields));

// ------------------------------------------------------ reference oracle ----

/// Textbook zero-padded Lorenzo over one sampled block: each point sums
/// whichever of its seven causal neighbours lie inside the block, in the
/// compressor's fixed order. Accumulates the code histogram, outliers and
/// the run-length savings the estimator counts.
template <typename T>
void reference_block(std::span<const T> data, const sz::Dims& dims, std::size_t bx,
                     std::size_t by, std::size_t bz, std::size_t ex, std::size_t ey,
                     std::size_t ez, double eb, std::uint32_t radius,
                     std::size_t min_lz_run, std::vector<std::uint64_t>& counts,
                     std::uint64_t& outliers, std::uint64_t& points,
                     std::uint64_t& run_saved) {
  const std::size_t n = ex * ey * ez;
  std::vector<std::uint32_t> codes(n);
  std::vector<T> recon(n);
  const double twice_eb = 2.0 * eb;
  const auto max_q = static_cast<long long>(radius) - 1;
  std::size_t i = 0;
  for (std::size_t x = 0; x < ex; ++x) {
    for (std::size_t y = 0; y < ey; ++y) {
      for (std::size_t z = 0; z < ez; ++z, ++i) {
        const T v = data[(bx + x) * dims.d1 * dims.d2 + (by + y) * dims.d2 + (bz + z)];
        const double orig = static_cast<double>(v);
        const bool hx = x > 0, hy = y > 0, hz = z > 0;
        const std::size_t sx = ey * ez, sy = ez;
        auto r = [&](std::size_t k) { return static_cast<double>(recon[k]); };
        double pred = 0.0;
        if (hz) pred += r(i - 1);
        if (hy) pred += r(i - sy);
        if (hx) pred += r(i - sx);
        if (hy && hz) pred -= r(i - sy - 1);
        if (hx && hz) pred -= r(i - sx - 1);
        if (hx && hy) pred -= r(i - sx - sy);
        if (hx && hy && hz) pred += r(i - sx - sy - 1);

        const double scaled = (orig - pred) / twice_eb;
        bool predictable = std::abs(scaled) <= static_cast<double>(max_q);
        long long q = 0;
        double rec = 0.0;
        if (predictable) {
          q = std::llround(scaled);
          rec = pred + static_cast<double>(q) * twice_eb;
          predictable = std::abs(static_cast<double>(static_cast<T>(rec)) - orig) <= eb;
        }
        codes[i] = predictable ? static_cast<std::uint32_t>(q + radius) : 0;
        recon[i] = predictable ? static_cast<T>(rec) : v;
        ++counts[codes[i]];
        if (!predictable) ++outliers;
      }
    }
  }
  points += n;
  std::size_t run_start = 0;
  for (std::size_t k = 1; k <= n; ++k) {
    if (k == n || codes[k] != codes[run_start]) {
      const std::size_t len = k - run_start;
      if (len >= min_lz_run && len > 8) run_saved += len - 8;
      run_start = k;
    }
  }
}

/// The estimator spelled out with the reference stencil: same block grid,
/// stride and cost model as estimate_ratio.
template <typename T>
RatioEstimate reference_estimate(std::span<const T> data, const sz::Dims& dims,
                                 const sz::Params& params, const RatioModelConfig& config) {
  const double eb = sz::resolve_error_bound<T>(data, params);
  const std::size_t total = dims.count();
  const bool multi = dims.rank() >= 2;
  const std::size_t bx = multi ? std::min(config.block_edge, dims.d0) : 1;
  const std::size_t by = multi ? std::min(config.block_edge, dims.d1) : 1;
  const std::size_t bz = std::min(multi ? config.block_edge : config.block_len_1d, dims.d2);
  const std::size_t gx = (dims.d0 + bx - 1) / bx, gy = (dims.d1 + by - 1) / by,
                    gz = (dims.d2 + bz - 1) / bz;
  const std::size_t total_blocks = gx * gy * gz;
  const auto want = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(config.sample_fraction * static_cast<double>(total) /
                                         static_cast<double>(bx * by * bz))),
      1, total_blocks);
  const std::size_t stride = std::max<std::size_t>(1, total_blocks / want);

  std::vector<std::uint64_t> counts(2ull * params.radius, 0);
  std::uint64_t outliers = 0, points = 0, run_saved = 0;
  for (std::size_t b = 0; b < total_blocks; b += stride) {
    const std::size_t x0 = b / (gy * gz) * bx, y0 = (b / gz) % gy * by, z0 = b % gz * bz;
    reference_block<T>(data, dims, x0, y0, z0, std::min(bx, dims.d0 - x0),
                       std::min(by, dims.d1 - y0), std::min(bz, dims.d2 - z0), eb,
                       params.radius, config.min_lz_run, counts, outliers, points,
                       run_saved);
  }

  RatioEstimate est;
  est.sampled_points = points;
  est.outlier_fraction = static_cast<double>(outliers) / static_cast<double>(points);
  std::vector<sz::SymbolCount> freqs;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) freqs.push_back({s, counts[s]});
  }
  const auto lengths = sz::huffman_code_lengths(freqs);
  std::uint64_t huff_bits = 0;
  std::uint8_t modal_len = 8;
  std::uint64_t modal_count = 0;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    huff_bits += freqs[k].count * lengths[k];
    if (freqs[k].count > modal_count) {
      modal_count = freqs[k].count;
      modal_len = lengths[k];
    }
  }
  est.huffman_bit_rate = static_cast<double>(huff_bits) / static_cast<double>(points);
  const double saved_bits = static_cast<double>(run_saved) * static_cast<double>(modal_len);
  if (params.lossless && huff_bits > 0) {
    est.lz_gain = std::clamp(1.0 - saved_bits / static_cast<double>(huff_bits), 0.02, 1.0);
  }
  const double overhead_bits =
      (static_cast<double>(freqs.size()) * 24.0 + 64.0 * 8.0) / static_cast<double>(total);
  est.bit_rate = std::max(est.huffman_bit_rate * est.lz_gain +
                              est.outlier_fraction * 8.0 * sizeof(T) + overhead_bits,
                          0.05);
  est.ratio = 8.0 * sizeof(T) / est.bit_rate;
  return est;
}

std::vector<util::Simd> available_levels() {
  std::vector<util::Simd> levels{util::Simd::kScalar};
  if (util::simd_detected() >= util::Simd::kAvx2) levels.push_back(util::Simd::kAvx2);
  if (util::simd_detected() >= util::Simd::kAvx512) levels.push_back(util::Simd::kAvx512);
  return levels;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every RatioEstimate field must equal the reference bit for bit, at
/// every dispatch level, for the default sample and for every block.
template <typename T>
void expect_matches_reference(const std::vector<T>& data, const sz::Dims& dims,
                              const sz::Params& p, const std::string& what) {
  const util::Simd saved = util::simd_active();
  RatioModelConfig all_blocks;
  all_blocks.sample_fraction = 1.0;
  for (const RatioModelConfig& cfg : {RatioModelConfig{}, all_blocks}) {
    const RatioEstimate ref = reference_estimate<T>(data, dims, p, cfg);
    for (const util::Simd level : available_levels()) {
      util::simd_set_active(level);
      const RatioEstimate est = estimate_ratio<T>(data, dims, p, cfg);
      const std::string at = what + " fraction=" + std::to_string(cfg.sample_fraction) +
                             " level=" + util::simd_name(level);
      EXPECT_EQ(est.sampled_points, ref.sampled_points) << at;
      EXPECT_TRUE(same_bits(est.bit_rate, ref.bit_rate)) << at;
      EXPECT_TRUE(same_bits(est.ratio, ref.ratio)) << at;
      EXPECT_TRUE(same_bits(est.outlier_fraction, ref.outlier_fraction)) << at;
      EXPECT_TRUE(same_bits(est.huffman_bit_rate, ref.huffman_bit_rate)) << at;
      EXPECT_TRUE(same_bits(est.lz_gain, ref.lz_gain)) << at;
    }
  }
  util::simd_set_active(saved);
}

template <typename T>
std::vector<T> smooth_field(const sz::Dims& dims, double noise) {
  std::vector<T> data(dims.count());
  util::Rng rng(31);
  std::size_t i = 0;
  for (std::size_t x = 0; x < dims.d0; ++x) {
    for (std::size_t y = 0; y < dims.d1; ++y) {
      for (std::size_t z = 0; z < dims.d2; ++z, ++i) {
        data[i] = static_cast<T>(std::sin(0.13 * static_cast<double>(x)) *
                                     std::cos(0.09 * static_cast<double>(y)) +
                                 0.4 * std::sin(0.21 * static_cast<double>(z)) +
                                 noise * rng.normal());
      }
    }
  }
  return data;
}

// Ragged grids: edge blocks narrower than 8 (and than 512 in 1-D), so
// samples mix lockstep lane groups, leftover equal-shape blocks and
// one-off edge shapes.
TEST(RatioModelOracle, MatchesReferenceOnRaggedShapes) {
  sz::Params p;
  p.error_bound = 1e-3;
  for (const sz::Dims& dims :
       {sz::Dims::make_3d(13, 21, 10), sz::Dims::make_3d(40, 44, 70),
        sz::Dims::make_3d(1, 37, 45), sz::Dims::make_3d(1, 300, 203),
        sz::Dims::make_1d(1500), sz::Dims::make_1d(20000)}) {
    const std::string what = std::to_string(dims.d0) + "x" + std::to_string(dims.d1) +
                             "x" + std::to_string(dims.d2);
    expect_matches_reference<float>(smooth_field<float>(dims, 0.01), dims, p, what);
  }
}

TEST(RatioModelOracle, MatchesReferenceOnDoubleData) {
  sz::Params p;
  p.error_bound = 1e-5;
  for (const sz::Dims& dims : {sz::Dims::make_3d(13, 21, 10), sz::Dims::make_3d(40, 44, 70),
                               sz::Dims::make_1d(1500)}) {
    expect_matches_reference<double>(smooth_field<double>(dims, 1e-4), dims, p, "double");
  }
}

TEST(RatioModelOracle, MatchesReferenceWithOutliers) {
  sz::Params p;
  p.error_bound = 1e-4;
  p.radius = 8;
  for (const sz::Dims& dims : {sz::Dims::make_3d(13, 21, 10), sz::Dims::make_3d(40, 44, 70),
                               sz::Dims::make_1d(1500)}) {
    const auto noisy = smooth_field<float>(dims, 0.05);
    ASSERT_GT(reference_estimate<float>(noisy, dims, p, {}).outlier_fraction, 0.0);
    expect_matches_reference<float>(noisy, dims, p, "noisy");
  }
}

TEST(RatioModel, RejectsRadiusBelowTwo) {
  const sz::Dims dims = sz::Dims::make_3d(16, 16, 16);
  const auto data = smooth_field<float>(dims, 0.0);
  sz::Params p;
  p.error_bound = 1e-3;
  p.radius = 1;
  EXPECT_THROW(estimate_ratio<float>(data, dims, p), std::invalid_argument);
}

// The estimator is prediction work: it shows up as one `estimate` span
// (with the sampler's quantize spans nested inside) and moves no sz
// counter, so traces and --stats keep it apart from compression.
TEST(RatioModel, TracedAsEstimateAndLeavesSzCountersAlone) {
  const sz::Dims dims = sz::Dims::make_3d(64, 64, 64);
  const auto data = data::make_nyx_field(dims, data::NyxField::kTemperature, 5);
  sz::Params p;
  p.error_bound = 1e3;
  const Telemetry before = metrics_snapshot();
  util::trace::stop();
  util::trace::clear();
  util::trace::start();
  const RatioEstimate est = estimate_ratio<float>(data, dims, p);
  util::trace::stop();
  const Telemetry after = metrics_snapshot();
  EXPECT_EQ(after.sz_bytes_in, before.sz_bytes_in);
  EXPECT_EQ(after.sz_bytes_out, before.sz_bytes_out);
  EXPECT_EQ(after.sz_blocks_encoded, before.sz_blocks_encoded);
  EXPECT_EQ(after.sz_outliers, before.sz_outliers);
  EXPECT_EQ(after.sz_huffman_symbols, before.sz_huffman_symbols);

  const std::vector<util::trace::Event> events = util::trace::events();
  util::trace::clear();
  const auto outer = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return std::strcmp(e.name, "estimate") == 0;
  });
  ASSERT_NE(outer, events.end());
  EXPECT_STREQ(outer->cat, "model");
  ASSERT_NE(outer->arg_name, nullptr);
  EXPECT_STREQ(outer->arg_name, "points");
  EXPECT_EQ(outer->arg, est.sampled_points);
  std::size_t nested = 0;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "quantize") != 0) continue;
    EXPECT_GE(e.start_ns, outer->start_ns);
    EXPECT_LE(e.end_ns, outer->end_ns);
    ++nested;
  }
  EXPECT_GT(nested, 0u);
}

}  // namespace
}  // namespace pcw::model

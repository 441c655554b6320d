#include <gtest/gtest.h>

#include "core/timing_engine.h"

namespace pcw::core {
namespace {

/// Builds a paper-like operating point: P ranks x F fields, 64 MiB raw
/// per partition, ~16x ratio with +-spread across partitions, compression
/// at the paper's measured single-core band.
std::vector<std::vector<PartitionProfile>> make_profiles(int nranks, int nfields,
                                                         double ratio = 16.0,
                                                         double spread = 0.25,
                                                         std::uint64_t seed = 7) {
  util::Rng rng(seed);
  std::vector<std::vector<PartitionProfile>> out(
      static_cast<std::size_t>(nranks),
      std::vector<PartitionProfile>(static_cast<std::size_t>(nfields)));
  const double raw = 64.0 * 1024 * 1024;
  for (auto& rank : out) {
    for (auto& part : rank) {
      const double jitter = 1.0 + spread * (rng.uniform() - 0.5) * 2.0;
      part.raw_bytes = raw;
      part.elem_count = raw / 4;
      part.actual_bytes = raw / (ratio * jitter);
      part.comp_seconds = raw / 180e6 * jitter;
      // Prediction within ~8% of actual, the ratio model's typical band.
      part.predicted_bytes = part.actual_bytes * (1.0 + 0.08 * (rng.uniform() - 0.5));
      part.predicted_ratio = raw / part.predicted_bytes;
    }
  }
  return out;
}

TEST(TimingEngine, ModeOrderingMatchesPaperAtOperatingPoint) {
  // Fig. 16's qualitative result: nc > filter > overlap >= reorder.
  const auto profiles = make_profiles(128, 6);
  const auto platform = iosim::Platform::summit();
  TimingConfig cfg;

  cfg.mode = WriteMode::kNoCompression;
  const auto nc = simulate_write(platform, profiles, cfg);
  cfg.mode = WriteMode::kFilterCollective;
  const auto filter = simulate_write(platform, profiles, cfg);
  cfg.mode = WriteMode::kOverlap;
  const auto overlap = simulate_write(platform, profiles, cfg);
  cfg.mode = WriteMode::kOverlapReorder;
  const auto reorder = simulate_write(platform, profiles, cfg);

  EXPECT_GT(nc.total, filter.total);
  EXPECT_GT(filter.total, overlap.total);
  // Reordering optimizes *predicted* times; under the ~8% prediction
  // noise of these profiles it may regress marginally, never grossly.
  EXPECT_LE(reorder.total, overlap.total * 1.03);
  // End-to-end gain in the paper's ballpark (>2x, <10x).
  EXPECT_GT(nc.total / reorder.total, 2.0);
  EXPECT_LT(nc.total / reorder.total, 10.0);
}

TEST(TimingEngine, BreakdownComponentsSumConsistently) {
  const auto profiles = make_profiles(64, 6);
  TimingConfig cfg;
  cfg.mode = WriteMode::kOverlapReorder;
  const auto b = simulate_write(iosim::Platform::summit(), profiles, cfg);
  EXPECT_NEAR(b.total,
              b.predict + b.exchange + b.compress + b.write_exposed + b.overflow, 1e-6);
  EXPECT_GT(b.compress, 0.0);
  EXPECT_GE(b.write_exposed, 0.0);
}

TEST(TimingEngine, CompressBarEqualsSlowestRank) {
  const auto profiles = make_profiles(32, 4);
  double slowest = 0.0;
  for (const auto& rank : profiles) {
    double sum = 0.0;
    for (const auto& p : rank) sum += p.comp_seconds;
    slowest = std::max(slowest, sum);
  }
  TimingConfig cfg;
  cfg.mode = WriteMode::kFilterCollective;
  const auto b = simulate_write(iosim::Platform::summit(), profiles, cfg);
  EXPECT_NEAR(b.compress, slowest, 1e-9);
}

TEST(TimingEngine, NoCompressionStorageEqualsRaw) {
  const auto profiles = make_profiles(16, 3);
  TimingConfig cfg;
  cfg.mode = WriteMode::kNoCompression;
  const auto b = simulate_write(iosim::Platform::summit(), profiles, cfg);
  EXPECT_DOUBLE_EQ(b.storage_bytes, b.raw_bytes);
  EXPECT_EQ(b.compress, 0.0);
}

TEST(TimingEngine, OverlapStorageIncludesExtraSpace) {
  const auto profiles = make_profiles(32, 4);
  TimingConfig cfg;
  cfg.mode = WriteMode::kOverlap;
  cfg.rspace = 1.25;
  const auto b = simulate_write(iosim::Platform::summit(), profiles, cfg);
  EXPECT_GT(b.storage_bytes, b.ideal_compressed_bytes);
  // Storage overhead ~ r_space (predictions are within ~8%).
  EXPECT_LT(b.storage_bytes / b.ideal_compressed_bytes, 1.45);
}

TEST(TimingEngine, TightRspaceCausesOverflows) {
  const auto profiles = make_profiles(64, 6, 16.0, 0.25, 11);
  TimingConfig tight;
  tight.mode = WriteMode::kOverlap;
  tight.rspace = 1.0;
  const auto b_tight = simulate_write(iosim::Platform::summit(), profiles, tight);
  TimingConfig roomy = tight;
  roomy.rspace = 1.43;
  const auto b_roomy = simulate_write(iosim::Platform::summit(), profiles, roomy);
  EXPECT_GT(b_tight.overflow_partitions, 0);
  EXPECT_GT(b_tight.overflow_partitions, b_roomy.overflow_partitions);
  EXPECT_LT(b_roomy.storage_bytes, b_tight.storage_bytes * 2.0);
}

TEST(TimingEngine, ReorderHelpsMostAtBalancedRatios) {
  // Fig. 17/18: the reorder gain peaks at mid ratios and shrinks at the
  // extremes.
  const auto platform = iosim::Platform::summit();
  auto gain_at = [&](double ratio) {
    const auto profiles = make_profiles(128, 8, ratio, 0.5, 13);
    TimingConfig cfg;
    cfg.mode = WriteMode::kOverlap;
    const auto overlap = simulate_write(platform, profiles, cfg);
    cfg.mode = WriteMode::kOverlapReorder;
    const auto reorder = simulate_write(platform, profiles, cfg);
    return overlap.total / reorder.total;
  };
  const double mid = gain_at(14.0);
  const double high = gain_at(120.0);
  EXPECT_GE(mid, 0.97);
  EXPECT_GE(high, 0.97);
  EXPECT_GE(mid + 1e-9, high * 0.97);  // no large inversion
}

TEST(TimingEngine, ReorderNeverHurtsUnderPerfectPrediction) {
  // With predicted == actual sizes the optimizer's cost is the system's
  // cost (modulo contention), so Algorithm 1 must not regress.
  auto profiles = make_profiles(96, 8, 16.0, 0.6, 23);
  for (auto& rank : profiles) {
    for (auto& p : rank) {
      p.predicted_bytes = p.actual_bytes;
      p.predicted_ratio = p.raw_bytes / p.actual_bytes;
    }
  }
  TimingConfig cfg;
  cfg.mode = WriteMode::kOverlap;
  const auto overlap = simulate_write(iosim::Platform::summit(), profiles, cfg);
  cfg.mode = WriteMode::kOverlapReorder;
  const auto reorder = simulate_write(iosim::Platform::summit(), profiles, cfg);
  EXPECT_LE(reorder.total, overlap.total * 1.005);
}

TEST(TimingEngine, WeakScalingStaysBounded) {
  // Weak scaling: per-rank work constant; total time should grow slowly
  // (communication terms only), not linearly with P.
  TimingConfig cfg;
  cfg.mode = WriteMode::kOverlapReorder;
  const auto platform = iosim::Platform::summit();
  const auto t256 = simulate_write(platform, make_profiles(256, 6), cfg).total;
  const auto t1024 = simulate_write(platform, make_profiles(1024, 6), cfg).total;
  EXPECT_LT(t1024, t256 * 6.0);
  EXPECT_GE(t1024, t256 * 0.5);
}

TEST(TimingEngine, BebopSlowerThanSummit) {
  const auto profiles = make_profiles(64, 6);
  TimingConfig cfg;
  cfg.mode = WriteMode::kNoCompression;
  const auto s = simulate_write(iosim::Platform::summit(), profiles, cfg);
  const auto b = simulate_write(iosim::Platform::bebop(), profiles, cfg);
  EXPECT_GT(b.total, s.total);
}

TEST(TimingEngine, RejectsMalformedProfiles) {
  TimingConfig cfg;
  EXPECT_THROW(simulate_write(iosim::Platform::summit(), {}, cfg),
               std::invalid_argument);
  std::vector<std::vector<PartitionProfile>> ragged{
      std::vector<PartitionProfile>(2),
      std::vector<PartitionProfile>(3),
  };
  EXPECT_THROW(simulate_write(iosim::Platform::summit(), ragged, cfg),
               std::invalid_argument);
}

/// Re-shapes a [rank][field] matrix into bootstrap's samples[field] pools.
std::vector<std::vector<PartitionProfile>> pools_of(
    const std::vector<std::vector<PartitionProfile>>& samples) {
  std::vector<std::vector<PartitionProfile>> pools(samples[0].size());
  for (const auto& rank : samples) {
    for (std::size_t f = 0; f < pools.size(); ++f) pools[f].push_back(rank[f]);
  }
  return pools;
}

TEST(TimingEngine, BootstrapPreservesFieldStatistics) {
  const auto pools = pools_of(make_profiles(8, 4, 16.0, 0.3, 17));
  util::Rng rng(1);
  const auto profiles = bootstrap_profiles(pools, 256, rng, 0.05);
  ASSERT_EQ(profiles.size(), 256u);
  ASSERT_EQ(profiles[0].size(), 4u);
  // Bootstrapped values stay near the pool's range.
  double pool_mean = 0.0;
  for (const auto& p : pools[0]) pool_mean += p.actual_bytes;
  pool_mean /= static_cast<double>(pools[0].size());
  double boot_mean = 0.0;
  for (const auto& rank : profiles) boot_mean += rank[0].actual_bytes;
  boot_mean /= static_cast<double>(profiles.size());
  EXPECT_NEAR(boot_mean, pool_mean, 0.25 * pool_mean);
}

TEST(TimingEngine, BootstrapRatioFollowsJitteredPrediction) {
  // Eq. (3) decides the extra-space boost on predicted_ratio, so it must
  // describe the jittered predicted size, not the sample it came from.
  // Ratios near the 32x threshold make a stale ratio change slot sizes.
  const auto pools = pools_of(make_profiles(8, 4, 32.0, 0.3, 19));
  util::Rng rng(3);
  const auto profiles = bootstrap_profiles(pools, 64, rng);
  for (const auto& rank : profiles) {
    for (const auto& p : rank) {
      EXPECT_DOUBLE_EQ(p.predicted_ratio, p.raw_bytes / p.predicted_bytes);
    }
  }
}

TEST(TimingEngine, BootstrapRejectsEmptyPools) {
  util::Rng rng(1);
  EXPECT_THROW(bootstrap_profiles({}, 8, rng), std::invalid_argument);
  std::vector<std::vector<PartitionProfile>> empty_pool(1);
  EXPECT_THROW(bootstrap_profiles(empty_pool, 8, rng), std::invalid_argument);
}

TEST(TimingEngine, FilterPathBeatsNoCompressionLikePaper) {
  // The 1.87x step of Fig. 16 (within a loose band: 1.2x..4x).
  const auto profiles = make_profiles(256, 6, 14.0);
  TimingConfig cfg;
  const auto platform = iosim::Platform::summit();
  cfg.mode = WriteMode::kNoCompression;
  const auto nc = simulate_write(platform, profiles, cfg);
  cfg.mode = WriteMode::kFilterCollective;
  const auto filter = simulate_write(platform, profiles, cfg);
  const double step = nc.total / filter.total;
  EXPECT_GT(step, 1.2);
  EXPECT_LT(step, 4.0);
}

}  // namespace
}  // namespace pcw::core

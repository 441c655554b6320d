// Golden-value regression suite for the prediction models.
//
// Pins model::RatioModel estimates on fixed xoshiro-seeded fields and the
// kDefaultRspace-driven extra-space policy to exact expected values, so a
// future perf refactor that silently changes model output fails loudly here.
// The golden constants were captured from the bootstrap build (g++ 12,
// RelWithDebInfo); they are pure function-of-seed outputs, so any drift is a
// behaviour change, not noise.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "model/extra_space.h"
#include "model/ratio_model.h"
#include "support/golden.h"
#include "sz/compressor.h"
#include "sz/dims.h"

namespace pcw {
namespace {

constexpr double kTol = 1e-9;

using testsupport::golden_field;

struct RatioGolden {
  std::uint64_t seed;
  double error_bound;
  double bit_rate;
  double ratio;
  double outlier_fraction;
  std::size_t sampled_points;
};

// Captured with golden_field (support/golden.h) on dims 32x32x32, default model config
// (32x4x32 sample boxes as thick as the field's one slab block, the
// 2048-point sample floor, exact codebook bytes; recaptured when run
// tokens replaced the LZ heuristic).
const RatioGolden kRatioGoldens[] = {
    {42, 1e-1, 5.303466796875, 6.0337890714910465, 0.0, 4096},
    {42, 1e-2, 8.900634765625, 3.5952491976849439, 0.0, 4096},
    {7, 1e-3, 13.281982421875, 2.4092789000606585, 0.000244140625, 4096},
};

TEST(ModelGolden, RatioModelEstimatesArePinned) {
  const auto dims = sz::Dims::make_3d(32, 32, 32);
  for (const auto& g : kRatioGoldens) {
    const auto field = golden_field(dims, g.seed);
    sz::Params params;
    params.error_bound = g.error_bound;
    const auto est = model::estimate_ratio<float>(std::span<const float>(field),
                                                  dims, params);
    EXPECT_NEAR(est.bit_rate, g.bit_rate, kTol)
        << "seed=" << g.seed << " eb=" << g.error_bound;
    EXPECT_NEAR(est.ratio, g.ratio, kTol)
        << "seed=" << g.seed << " eb=" << g.error_bound;
    EXPECT_NEAR(est.outlier_fraction, g.outlier_fraction, kTol)
        << "seed=" << g.seed << " eb=" << g.error_bound;
    EXPECT_EQ(est.sampled_points, g.sampled_points)
        << "seed=" << g.seed << " eb=" << g.error_bound;
  }
}

struct RspaceGolden {
  double predicted_ratio;
  double effective;
  double reserved;
};

// effective_rspace / reserved_bytes under kDefaultRspace for 1 MiB of
// predicted compressed size, spanning the Eq. (3) regime change at 32x.
const RspaceGolden kRspaceGoldens[] = {
    {4.0, 1.25, 1310720.0},
    {16.0, 1.25, 1310720.0},
    {31.999, 1.25, 1310720.0},
    {32.001, 2.0, 2097152.0},
    {64.0, 2.0, 2097152.0},
    {200.0, 2.0, 2097152.0},
};

TEST(ModelGolden, DefaultRspaceExtraSpaceIsPinned) {
  const double predicted_bytes = 1048576.0;
  for (const auto& g : kRspaceGoldens) {
    EXPECT_NEAR(model::effective_rspace(model::kDefaultRspace, g.predicted_ratio),
                g.effective, kTol)
        << "ratio=" << g.predicted_ratio;
    EXPECT_NEAR(model::reserved_bytes(predicted_bytes, g.predicted_ratio,
                                      model::kDefaultRspace),
                g.reserved, kTol)
        << "ratio=" << g.predicted_ratio;
  }
}

struct WeightGolden {
  double weight;
  double rspace;
};

// Fig. 9 mapping at representative preference weights.
const WeightGolden kWeightGoldens[] = {
    {0.0, 1.1},
    {0.25, 1.2650000000000001},
    {0.5, 1.3333452377915607},
    {0.75, 1.3857883832488647},
    {1.0, 1.43},
};

TEST(ModelGolden, RspaceForWeightIsPinned) {
  for (const auto& g : kWeightGoldens) {
    EXPECT_NEAR(model::rspace_for_weight(g.weight), g.rspace, kTol)
        << "w=" << g.weight;
  }
}

// The boundary constants themselves are part of the contract.
TEST(ModelGolden, RspaceConstants) {
  EXPECT_DOUBLE_EQ(model::kMinRspace, 1.1);
  EXPECT_DOUBLE_EQ(model::kMaxRspace, 1.43);
  EXPECT_DOUBLE_EQ(model::kDefaultRspace, 1.25);
  EXPECT_DOUBLE_EQ(model::rspace_for_weight(0.0), model::kMinRspace);
  EXPECT_DOUBLE_EQ(model::rspace_for_weight(1.0), model::kMaxRspace);
}

}  // namespace
}  // namespace pcw

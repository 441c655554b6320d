#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/lorenzo_oracle.h"
#include "sz/lorenzo.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

using testsupport::lorenzo_quantize;

template <typename T>
std::vector<T> round_trip(const std::vector<T>& data, const Dims& dims, double eb,
                          std::uint32_t radius = 32768) {
  const auto q = lorenzo_quantize<T>(data, dims, eb, radius);
  std::vector<T> out(data.size());
  lorenzo_dequantize<T>(q.codes, q.outliers, dims, eb, radius, out);
  return out;
}

template <typename T>
double max_abs_err(const std::vector<T>& a, const std::vector<T>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

std::vector<float> smooth_3d(std::size_t n, std::uint64_t seed) {
  std::vector<float> data(n * n * n);
  util::Rng rng(seed);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t z = 0; z < n; ++z) {
        data[(x * n + y) * n + z] = static_cast<float>(
            std::sin(0.11 * static_cast<double>(x)) *
                std::cos(0.07 * static_cast<double>(y)) +
            0.4 * std::sin(0.19 * static_cast<double>(z)) + 0.01 * rng.normal());
      }
    }
  }
  return data;
}

TEST(Lorenzo, BoundHolds3DSmooth) {
  const auto data = smooth_3d(24, 5);
  const Dims dims = Dims::make_3d(24, 24, 24);
  for (const double eb : {1e-1, 1e-3, 1e-6}) {
    EXPECT_LE(max_abs_err(data, round_trip(data, dims, eb)), eb) << "eb=" << eb;
  }
}

TEST(Lorenzo, BoundHolds1D) {
  util::Rng rng(7);
  std::vector<float> data(10000);
  double v = 0.0;
  for (auto& x : data) {
    v += rng.normal() * 0.1;
    x = static_cast<float>(v);
  }
  const Dims dims = Dims::make_1d(data.size());
  for (const double eb : {1e-2, 1e-4}) {
    EXPECT_LE(max_abs_err(data, round_trip(data, dims, eb)), eb);
  }
}

TEST(Lorenzo, BoundHolds2D) {
  const std::size_t n = 64;
  std::vector<float> data(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      data[r * n + c] = static_cast<float>(std::sin(0.2 * static_cast<double>(r)) +
                                           std::cos(0.3 * static_cast<double>(c)));
    }
  }
  const Dims dims = Dims::make_2d(n, n);
  EXPECT_LE(max_abs_err(data, round_trip(data, dims, 1e-3)), 1e-3);
}

TEST(Lorenzo, BoundHoldsOnWhiteNoise) {
  // Worst case for the predictor: nothing is predictable well, yet the
  // bound must still hold (via large quantization codes or outliers).
  util::Rng rng(11);
  std::vector<float> data(4096);
  for (auto& x : data) x = static_cast<float>(rng.normal() * 100.0);
  const Dims dims = Dims::make_1d(data.size());
  EXPECT_LE(max_abs_err(data, round_trip(data, dims, 1e-3)), 1e-3);
}

TEST(Lorenzo, BoundHoldsDouble) {
  util::Rng rng(13);
  std::vector<double> data(20 * 20 * 20);
  for (auto& x : data) x = rng.normal();
  const Dims dims = Dims::make_3d(20, 20, 20);
  EXPECT_LE(max_abs_err(data, round_trip(data, dims, 1e-9)), 1e-9);
}

TEST(Lorenzo, ConstantDataProducesSingleDominantCode) {
  const std::vector<float> data(1000, 3.5f);
  const Dims dims = Dims::make_1d(1000);
  const auto q = lorenzo_quantize<float>(data, dims, 1e-3, 32768);
  EXPECT_TRUE(q.outliers.empty());
  // After the first element every residual is 0 => code == radius.
  std::size_t zero_codes = 0;
  for (const auto c : q.codes) zero_codes += (c == 32768);
  EXPECT_GE(zero_codes, q.codes.size() - 1);
}

TEST(Lorenzo, SmallRadiusForcesOutliers) {
  // Radius 2 codes residuals in {-1, 0, +1} quanta only; jumps become
  // outliers but the round trip stays exact-within-bound.
  std::vector<float> data(500);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i % 50 == 0) ? 1000.0f : 0.0f;
  }
  const Dims dims = Dims::make_1d(data.size());
  const auto q = lorenzo_quantize<float>(data, dims, 1e-3, 2);
  EXPECT_GT(q.outliers.size(), 0u);
  std::vector<float> out(data.size());
  lorenzo_dequantize<float>(q.codes, q.outliers, dims, 1e-3, 2, out);
  EXPECT_LE(max_abs_err(data, out), 1e-3);
}

TEST(Lorenzo, OutlierValuesStoredVerbatim) {
  std::vector<float> data{0.0f, 1e30f, 0.0f, -1e30f};
  const Dims dims = Dims::make_1d(4);
  const auto q = lorenzo_quantize<float>(data, dims, 1e-6, 256);
  std::vector<float> out(4);
  lorenzo_dequantize<float>(q.codes, q.outliers, dims, 1e-6, 256, out);
  EXPECT_EQ(out[1], 1e30f);
  EXPECT_EQ(out[3], -1e30f);
}

TEST(Lorenzo, RejectsSizeMismatch) {
  const std::vector<float> data(10);
  EXPECT_THROW(lorenzo_quantize<float>(data, Dims::make_1d(11), 1e-3, 32768),
               std::invalid_argument);
}

TEST(Lorenzo, RejectsNonPositiveErrorBound) {
  const std::vector<float> data(10);
  EXPECT_THROW(lorenzo_quantize<float>(data, Dims::make_1d(10), 0.0, 32768),
               std::invalid_argument);
  EXPECT_THROW(lorenzo_quantize<float>(data, Dims::make_1d(10), -1.0, 32768),
               std::invalid_argument);
}

TEST(Lorenzo, RejectsTinyRadius) {
  const std::vector<float> data(10);
  EXPECT_THROW(lorenzo_quantize<float>(data, Dims::make_1d(10), 1e-3, 1),
               std::invalid_argument);
}

TEST(Lorenzo, DequantizeDetectsOutlierUnderrun) {
  const std::vector<std::uint32_t> codes{0, 0};  // two outliers expected
  const std::vector<float> outliers{1.0f};       // only one provided
  std::vector<float> out(2);
  EXPECT_THROW(lorenzo_dequantize<float>(codes, outliers, Dims::make_1d(2), 1e-3,
                                         32768, out),
               std::runtime_error);
}

TEST(Lorenzo, DeterministicAcrossCalls) {
  const auto data = smooth_3d(16, 21);
  const Dims dims = Dims::make_3d(16, 16, 16);
  const auto a = lorenzo_quantize<float>(data, dims, 1e-3, 32768);
  const auto b = lorenzo_quantize<float>(data, dims, 1e-3, 32768);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.outliers, b.outliers);
}

TEST(Lorenzo, SmootherDataYieldsNarrowerCodes) {
  // The Fig.-5 premise: smoother data -> codes concentrated near the
  // zero-residual center -> higher ratio. Verify the concentration.
  const auto smooth = smooth_3d(24, 31);
  util::Rng rng(32);
  std::vector<float> rough(smooth.size());
  for (auto& x : rough) x = static_cast<float>(rng.normal());
  const Dims dims = Dims::make_3d(24, 24, 24);

  auto center_fraction = [&](const std::vector<float>& d) {
    const auto q = lorenzo_quantize<float>(d, dims, 1e-3, 32768);
    std::size_t center = 0;
    for (const auto c : q.codes) center += (c >= 32768 - 2 && c <= 32768 + 2);
    return static_cast<double>(center) / static_cast<double>(q.codes.size());
  };
  EXPECT_GT(center_fraction(smooth), center_fraction(rough));
}

struct BoundCase {
  double eb;
  std::uint32_t radius;
};

class LorenzoBoundSweep : public ::testing::TestWithParam<BoundCase> {};

TEST_P(LorenzoBoundSweep, ErrorBoundInvariant) {
  const auto [eb, radius] = GetParam();
  const auto data = smooth_3d(20, 777);
  const Dims dims = Dims::make_3d(20, 20, 20);
  EXPECT_LE(max_abs_err(data, round_trip(data, dims, eb, radius)), eb);
}

INSTANTIATE_TEST_SUITE_P(
    BoundsAndRadii, LorenzoBoundSweep,
    ::testing::Values(BoundCase{1.0, 32768}, BoundCase{1e-1, 32768},
                      BoundCase{1e-2, 4096}, BoundCase{1e-3, 256},
                      BoundCase{1e-4, 32768}, BoundCase{1e-5, 16},
                      BoundCase{1e-7, 32768}, BoundCase{1e-2, 2}));

}  // namespace
}  // namespace pcw::sz

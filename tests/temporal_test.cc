// Temporal-predictor coverage at the sz layer: kernel bound preservation,
// per-block spatial fallback, temporal round trips, thread determinism,
// partial (region) chain decode, and malformed-v3 parsing of the
// checked-in legacy fixture.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "sz/blocks.h"
#include "sz/compressor.h"
#include "sz/temporal.h"
#include "support/legacy_fixtures.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

// Multi-block extents: split_blocks yields 4 slabs of 8x64x64 = 32768
// elements each, so partial-decode assertions have real block structure.
const Dims kSeriesDims = Dims::make_3d(32, 64, 64);

/// The in-situ series shape the temporal predictor exists for: fine-scale
/// structure that *persists* across steps (seeded per field, not per
/// step — the spatial stencil cannot predict it, the previous step
/// predicts it perfectly) riding on a smooth component that drifts gently
/// with t.
std::vector<float> series_step(const Dims& dims, double t, std::uint64_t seed = 7,
                               double roughness = 0.05) {
  std::vector<float> data(dims.count());
  util::Rng rng(seed);
  std::size_t i = 0;
  for (std::size_t x = 0; x < dims.d0; ++x) {
    for (std::size_t y = 0; y < dims.d1; ++y) {
      for (std::size_t z = 0; z < dims.d2; ++z, ++i) {
        data[i] = static_cast<float>(
            std::sin(0.11 * static_cast<double>(x) + 0.6 * t) *
                std::cos(0.07 * static_cast<double>(y) - 0.4 * t) +
            0.3 * std::sin(0.19 * static_cast<double>(z) + 0.2 * t) +
            roughness * rng.normal());
      }
    }
  }
  return data;
}

double max_abs_err(const std::vector<float>& a, const std::vector<float>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

Params temporal_params(double eb = 1e-3) {
  Params p;
  p.error_bound = eb;
  p.predictor = Predictor::kTemporal;
  return p;
}

TEST(Temporal, KernelRoundTripRespectsBound) {
  const Dims dims = Dims::make_3d(1, 16, 33);
  const auto prev = series_step(dims, 0.0);
  const auto curr = series_step(dims, 0.03);
  for (const double eb : {1e-1, 1e-3, 1e-5}) {
    const auto q = temporal_quantize<float>(curr, prev, eb, 32768);
    std::vector<float> out(curr.size());
    temporal_dequantize<float>(q.codes, q.outliers, prev, eb, 32768, out);
    EXPECT_LE(max_abs_err(curr, out), eb) << "eb=" << eb;
    // The exported reconstruction is the decode, bit for bit.
    EXPECT_EQ(0, std::memcmp(q.recon.data(), out.data(), out.size() * sizeof(float)));
  }
}

TEST(Temporal, KernelRejectsBadArguments) {
  const std::vector<float> data(16, 1.0f), prev(8, 1.0f);
  EXPECT_THROW(temporal_quantize<float>(data, prev, 1e-3, 32768),
               std::invalid_argument);
  EXPECT_THROW(
      temporal_quantize<float>(data, std::vector<float>(16, 0.f), 0.0, 32768),
      std::invalid_argument);
  EXPECT_THROW(
      temporal_quantize<float>(data, std::vector<float>(16, 0.f), 1e-3, 1),
      std::invalid_argument);
}

TEST(Temporal, ChainPreservesBoundAtEveryStep) {
  // The property the predictor is built on: quantizing each step against
  // the *reconstructed* previous step keeps |x̂_t - x_t| <= eb at every
  // link — error must not accumulate past the bound along a K-step chain.
  const double eb = 1e-3;
  const int steps = 8;
  std::vector<float> prev_recon;
  std::vector<std::vector<std::uint8_t>> blobs;
  std::vector<std::vector<float>> originals;
  for (int t = 0; t < steps; ++t) {
    originals.push_back(series_step(kSeriesDims, 0.05 * t));
    Params p = t == 0 ? Params{} : temporal_params(eb);
    p.error_bound = eb;
    std::vector<float> recon;
    blobs.push_back(compress<float>(originals.back(), kSeriesDims, p,
                                    t == 0 ? std::span<const float>{}
                                           : std::span<const float>(prev_recon),
                                    &recon));
    EXPECT_LE(max_abs_err(originals.back(), recon), eb) << "step " << t;
    prev_recon = std::move(recon);
  }
  // Decode the chain from scratch and pin both the bound and bit-equality
  // with the writer's reconstruction at the final step.
  std::vector<float> decoded;
  for (int t = 0; t < steps; ++t) {
    decoded = decompress<float>(blobs[static_cast<std::size_t>(t)],
                                std::span<const float>(decoded));
    EXPECT_LE(max_abs_err(originals[static_cast<std::size_t>(t)], decoded), eb)
        << "step " << t;
  }
  ASSERT_EQ(decoded.size(), prev_recon.size());
  EXPECT_EQ(0, std::memcmp(decoded.data(), prev_recon.data(),
                           decoded.size() * sizeof(float)));
}

TEST(Temporal, SmoothSeriesCompressesSmallerThanSpatial) {
  const auto prev_orig = series_step(kSeriesDims, 0.0);
  const auto curr = series_step(kSeriesDims, 0.02);
  Params spatial;
  spatial.error_bound = 1e-3;
  std::vector<float> prev_recon;
  compress<float>(prev_orig, kSeriesDims, spatial, {}, &prev_recon);

  const auto blob_s = compress<float>(curr, kSeriesDims, spatial);
  const auto blob_t =
      compress<float>(curr, kSeriesDims, temporal_params(), prev_recon);
  const auto info = inspect(blob_t);
  EXPECT_EQ(info.version, 5u);
  EXPECT_GT(info.temporal_blocks, 0u);
  EXPECT_LT(blob_t.size(), blob_s.size());
}

TEST(Temporal, DecorrelatedReferenceFallsBackToSpatialPerBlock) {
  // A garbage reference must cost nothing: every block should fall back
  // to the spatial stencil, and the resulting blob decodes standalone.
  const auto curr = series_step(kSeriesDims, 0.5);
  std::vector<float> garbage(curr.size());
  util::Rng rng(99);
  for (auto& v : garbage) v = static_cast<float>(100.0 * rng.normal());

  const auto blob = compress<float>(curr, kSeriesDims, temporal_params(), garbage);
  const auto info = inspect(blob);
  EXPECT_EQ(info.temporal_blocks, 0u);
  const auto rec = decompress<float>(blob);  // no reference needed
  EXPECT_LE(max_abs_err(curr, rec), 1e-3);

  // Every block spatial: the very bytes of a spatial compression.
  Params spatial;
  spatial.error_bound = 1e-3;
  EXPECT_EQ(blob, compress<float>(curr, kSeriesDims, spatial));
}

TEST(Temporal, MixedPredictorBlocks) {
  // First half static (temporal wins), second half swapped for an
  // unrelated smooth field — spatially predictable, temporally
  // decorrelated, so spatial wins there. The per-block choice must split
  // the container.
  const std::size_t n = kSeriesDims.count();
  auto prev = series_step(kSeriesDims, 0.0);
  auto curr = prev;
  const auto far = series_step(kSeriesDims, 40.0, /*seed=*/1234, /*roughness=*/0.0);
  for (std::size_t i = n / 2; i < n; ++i) curr[i] = far[i];
  std::vector<float> prev_recon;
  Params spatial;
  spatial.error_bound = 1e-3;
  compress<float>(prev, kSeriesDims, spatial, {}, &prev_recon);
  const auto blob = compress<float>(curr, kSeriesDims, temporal_params(), prev_recon);
  const auto info = inspect(blob);
  EXPECT_GT(info.temporal_blocks, 0u);
  EXPECT_LT(info.temporal_blocks, info.block_count);
  const auto rec =
      decompress<float>(blob, std::span<const float>(prev_recon));
  EXPECT_LE(max_abs_err(curr, rec), 1e-3);
}

TEST(Temporal, BlobsByteIdenticalAcrossThreadCounts) {
  const auto prev_orig = series_step(kSeriesDims, 0.0);
  const auto curr = series_step(kSeriesDims, 0.02);
  std::vector<float> prev_recon;
  Params p0;
  p0.error_bound = 1e-3;
  compress<float>(prev_orig, kSeriesDims, p0, {}, &prev_recon);

  Params p = temporal_params();
  p.threads = 1;
  const auto ref_blob = compress<float>(curr, kSeriesDims, p, prev_recon);
  const auto ref_out =
      decompress<float>(ref_blob, std::span<const float>(prev_recon));
  for (const unsigned threads : {2u, 3u, 8u}) {
    p.threads = threads;
    std::vector<float> recon;
    const auto blob = compress<float>(curr, kSeriesDims, p, prev_recon, &recon);
    EXPECT_EQ(blob, ref_blob) << "threads=" << threads;
    const auto out = decompress<float>(blob, std::span<const float>(prev_recon),
                                       nullptr, threads);
    EXPECT_EQ(0, std::memcmp(out.data(), ref_out.data(), out.size() * sizeof(float)))
        << "threads=" << threads;
    EXPECT_EQ(0,
              std::memcmp(recon.data(), ref_out.data(), out.size() * sizeof(float)));
  }
}

TEST(Temporal, SpatialBlobsDecodeWithOrWithoutAReference) {
  // The prev-taking overloads accept a reference for spatial blobs (it is
  // simply unused) — what a chain decode hands every link. Both today's
  // container and the legacy v2 layout (checked-in fixture).
  const auto data = series_step(kSeriesDims, 0.1);
  Params p;
  p.error_bound = 1e-3;
  for (const auto& blob : {compress<float>(data, kSeriesDims, p),
                           testsupport::load_fixture(testsupport::kV2Plain)}) {
    const HeaderInfo info = inspect(blob);
    EXPECT_EQ(info.temporal_blocks, 0u) << "v" << info.version;
    const std::vector<float> ref(info.dims.count(), 1.0f);
    const auto with_ref = decompress<float>(blob, std::span<const float>(ref));
    const auto without = decompress<float>(blob);
    EXPECT_EQ(with_ref, without) << "v" << info.version;
  }
}

TEST(Temporal, RegionChainDecodeMatchesFullChain) {
  const double eb = 1e-3;
  const int steps = 4;
  // Build a 3-step temporal chain on top of a keyframe.
  std::vector<std::vector<std::uint8_t>> blobs;
  std::vector<float> prev_recon;
  for (int t = 0; t < steps; ++t) {
    const auto orig = series_step(kSeriesDims, 0.04 * t);
    Params p = t == 0 ? Params{} : temporal_params(eb);
    p.error_bound = eb;
    std::vector<float> recon;
    blobs.push_back(compress<float>(orig, kSeriesDims, p,
                                    t == 0 ? std::span<const float>{}
                                           : std::span<const float>(prev_recon),
                                    &recon));
    prev_recon = std::move(recon);
  }
  ASSERT_GT(inspect(blobs.back()).temporal_blocks, 0u);

  // Full-chain reference.
  std::vector<float> full;
  for (const auto& blob : blobs) {
    full = decompress<float>(blob, std::span<const float>(full));
  }

  const Region regions[] = {
      {{9, 0, 0}, {10, kSeriesDims.d1, kSeriesDims.d2}},  // one plane
      {{3, 5, 7}, {21, 13, 29}},                          // multi-block box
      {{0, 0, 0}, {kSeriesDims.d0, kSeriesDims.d1, kSeriesDims.d2}},  // everything
  };
  for (const Region& region : regions) {
    std::vector<float> chain;
    std::uint64_t total_decoded = 0;
    for (const auto& blob : blobs) {
      RegionDecodeStats stats;
      chain = decompress_region<float>(blob, region, std::span<const float>(chain), 1,
                                       &stats);
      EXPECT_TRUE(stats.used_block_index);
      total_decoded += stats.blocks_decoded;
    }
    // Slice the full-chain reference and require bit equality.
    std::vector<float> want;
    want.reserve(region.count());
    for_each_region_row(region, kSeriesDims,
                        [&](std::size_t g, std::size_t len, std::size_t) {
                          want.insert(want.end(), full.begin() + static_cast<std::ptrdiff_t>(g),
                                      full.begin() + static_cast<std::ptrdiff_t>(g + len));
                        });
    ASSERT_EQ(chain.size(), want.size());
    EXPECT_EQ(0, std::memcmp(chain.data(), want.data(), want.size() * sizeof(float)));
    // A one-plane request must chain-decode one block per link, not the
    // whole container.
    if (region.count() == kSeriesDims.d1 * kSeriesDims.d2) {
      EXPECT_EQ(total_decoded, static_cast<std::uint64_t>(steps));
    }
  }
}

TEST(Temporal, RegionDecodeAcrossThreadsIsIdentical) {
  const auto prev_orig = series_step(kSeriesDims, 0.0);
  const auto curr = series_step(kSeriesDims, 0.02);
  std::vector<float> prev_recon;
  Params p0;
  p0.error_bound = 1e-3;
  compress<float>(prev_orig, kSeriesDims, p0, {}, &prev_recon);
  const auto blob = compress<float>(curr, kSeriesDims, temporal_params(), prev_recon);

  const Region region{{2, 3, 0}, {27, 60, 32}};
  std::vector<float> prev_region;
  for_each_region_row(region, kSeriesDims,
                      [&](std::size_t g, std::size_t len, std::size_t) {
                        prev_region.insert(
                            prev_region.end(),
                            prev_recon.begin() + static_cast<std::ptrdiff_t>(g),
                            prev_recon.begin() + static_cast<std::ptrdiff_t>(g + len));
                      });
  const auto ref = decompress_region<float>(blob, region,
                                            std::span<const float>(prev_region), 1);
  for (const unsigned threads : {2u, 8u}) {
    const auto out = decompress_region<float>(
        blob, region, std::span<const float>(prev_region), threads);
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

TEST(Temporal, ErrorPaths) {
  const auto prev_orig = series_step(kSeriesDims, 0.0);
  const auto curr = series_step(kSeriesDims, 0.02);
  std::vector<float> prev_recon;
  Params p0;
  p0.error_bound = 1e-3;
  compress<float>(prev_orig, kSeriesDims, p0, {}, &prev_recon);

  // Compress-side contract violations.
  EXPECT_THROW(compress<float>(curr, kSeriesDims, temporal_params()),
               std::invalid_argument);
  EXPECT_THROW(compress<float>(curr, kSeriesDims, temporal_params(),
                               std::span<const float>(prev_recon.data(), 16)),
               std::invalid_argument);
  Params spatial;
  spatial.error_bound = 1e-3;
  EXPECT_THROW(compress<float>(curr, kSeriesDims, spatial, prev_recon),
               std::invalid_argument);

  // Decode-side: a temporal blob without (or with a mis-sized) reference.
  const auto blob = compress<float>(curr, kSeriesDims, temporal_params(), prev_recon);
  ASSERT_GT(inspect(blob).temporal_blocks, 0u);
  EXPECT_THROW(decompress<float>(blob), std::runtime_error);
  EXPECT_THROW(decompress<float>(blob, std::span<const float>(prev_recon.data(), 16)),
               std::invalid_argument);
  const Region plane{{0, 0, 0}, {1, kSeriesDims.d1, kSeriesDims.d2}};
  EXPECT_THROW(decompress_region<float>(blob, plane), std::runtime_error);
  EXPECT_THROW(decompress_region<float>(blob, plane,
                                        std::span<const float>(prev_recon.data(), 7)),
               std::invalid_argument);
}

TEST(Temporal, MalformedV3Rejected) {
  const auto blob = testsupport::load_fixture(testsupport::kV3Plain);
  ASSERT_EQ(inspect(blob).version, 3u);

  // Predictor byte of the first index entry: fixed header (80 bytes) +
  // the three u64 fields.
  auto bad = blob;
  bad[80 + 24] = 7;  // not a known predictor
  EXPECT_THROW(inspect(bad), std::runtime_error);

  // Truncation anywhere inside the (bigger) v3 index still throws.
  for (const std::size_t keep : {81u, 100u, 104u, 130u}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(inspect(cut), std::runtime_error) << "keep=" << keep;
  }
}

}  // namespace
}  // namespace pcw::sz

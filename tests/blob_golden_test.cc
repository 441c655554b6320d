// Golden bytes of the sz writer: FNV-1a 64 hashes of compress() output
// and of the recon_out reconstruction for fixed inputs, checked at every
// SIMD level this host runs and at two thread counts. The other suites pin
// invariance (across threads, levels, compression levels); this one pins
// the absolute container v5 bytes, so a refactor of the writer or of a
// kernel that moves a single byte fails here. Inputs come from
// golden_field (support/golden.h), which is portable across compilers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "support/golden.h"
#include "support/simd_levels.h"
#include "sz/compressor.h"

namespace pcw::sz {
namespace {

using testsupport::fnv1a;
using testsupport::golden_field;

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Compresses at every level and at 1 and 3 threads; each blob and
/// reconstruction must hash to the pinned values.
template <typename T>
void expect_pinned(const char* name, std::span<const T> data, const Dims& dims,
                   const Params& params, std::span<const T> prev,
                   std::uint64_t blob_hash, std::uint64_t recon_hash) {
  testsupport::ActiveGuard guard;
  for (const util::Simd level : testsupport::available_levels()) {
    util::simd_set_active(level);
    for (const unsigned threads : {1u, 3u}) {
      Params p = params;
      p.threads = threads;
      std::vector<T> recon;
      const auto blob = compress<T>(data, dims, p, prev, &recon);
      EXPECT_EQ(hex(fnv1a(blob)), hex(blob_hash))
          << name << " blob (" << blob.size() << " B) at " << util::simd_name(level)
          << ", threads=" << threads;
      EXPECT_EQ(hex(fnv1a(recon)), hex(recon_hash))
          << name << " recon at " << util::simd_name(level) << ", threads=" << threads;
    }
  }
}

TEST(BlobGolden, Float3dLaneGroupPlusLeftover) {
  // 17 slabs of 1x128x256: one 16-lane group and a leftover single.
  const Dims dims = Dims::make_3d(17, 128, 256);
  const auto data = golden_field<float>(dims, 11);
  Params p;
  p.error_bound = 0.1;
  ASSERT_EQ(inspect(compress<float>(data, dims, p)).block_count, 17u);
  expect_pinned<float>("f32 3-D", data, dims, p, {}, 0x8948584b80b73b3dull,
                       0x87dd79ba6c8be3cfull);
}

TEST(BlobGolden, Float64WithRunTokens) {
  const Dims dims = Dims::make_3d(8, 128, 256);
  const auto data = golden_field<double>(dims, 12);
  Params p;
  p.error_bound = 2.0;  // loose enough for zero-residual runs
  const HeaderInfo info = inspect(compress<double>(data, dims, p));
  ASSERT_EQ(info.block_count, 8u);
  ASSERT_TRUE(info.run_tokens);
  expect_pinned<double>("f64 3-D", data, dims, p, {}, 0x8bc8d1238814191full,
                        0xab161bf8810c1db7ull);
}

TEST(BlobGolden, Float1d) {
  const Dims dims = Dims::make_1d(100000);
  const auto data = golden_field<float>(dims, 13);
  Params p;
  p.error_bound = 0.1;
  expect_pinned<float>("f32 1-D", data, dims, p, {}, 0x62d18822e877a8a3ull,
                       0x9834d12dbaec0828ull);
}

TEST(BlobGolden, TemporalStepWithMixedPredictors) {
  // First half: the keyframe drifted slightly (temporal wins); second
  // half: an unrelated field (spatial wins).
  const Dims dims = Dims::make_3d(32, 64, 64);
  const auto key = golden_field<float>(dims, 14);
  const auto other = golden_field<float>(dims, 15);
  std::vector<float> step(key.size());
  for (std::size_t i = 0; i < step.size(); ++i) {
    step[i] = i < step.size() / 2 ? key[i] + 0.01f : other[i];
  }
  Params p;
  p.error_bound = 0.1;
  std::vector<float> key_recon;
  compress<float>(key, dims, p, {}, &key_recon);
  p.predictor = Predictor::kTemporal;
  const HeaderInfo info = inspect(compress<float>(step, dims, p, key_recon));
  ASSERT_GT(info.temporal_blocks, 0u);
  ASSERT_LT(info.temporal_blocks, info.block_count);
  expect_pinned<float>("temporal", step, dims, p, key_recon, 0xe9a3cba9a196acdcull,
                       0x9b4d717f18ccaaafull);
}

TEST(BlobGolden, WithoutRunTokens) {
  const Dims dims = Dims::make_3d(4, 128, 128);
  const auto data = golden_field<float>(dims, 16);
  Params p;
  p.error_bound = 2.0;
  p.lossless = false;
  ASSERT_FALSE(inspect(compress<float>(data, dims, p)).run_tokens);
  expect_pinned<float>("lossless=false", data, dims, p, {}, 0x88a89c74176ce209ull,
                       0xf4f4a77fd6cc6ba9ull);
}

TEST(BlobGolden, OutlierHeavyRadius4) {
  const Dims dims = Dims::make_3d(4, 128, 128);
  const auto data = golden_field<float>(dims, 17);
  Params p;
  p.error_bound = 0.1;
  p.radius = 4;
  ASSERT_GT(inspect(compress<float>(data, dims, p)).outlier_count, dims.count() / 4);
  expect_pinned<float>("radius=4", data, dims, p, {}, 0x0390af4dbf571357ull,
                       0x05e228c97c53f14eull);
}

}  // namespace
}  // namespace pcw::sz

// Region (hyperslab) reads at the sz layer: decompress_region must be
// byte-identical to slicing a full decode — across container versions,
// thread counts, and degenerate requests — and must decode *only* the
// blocks a v2 request touches (pinned via RegionDecodeStats).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

#include "support/build_v1_blob.h"
#include "support/legacy_fixtures.h"
#include "support/simd_levels.h"
#include "sz/blocks.h"
#include "sz/compressor.h"
#include "sz/dims.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

std::vector<float> smooth_field(const Dims& dims, std::uint64_t seed,
                                double noise = 0.01) {
  std::vector<float> data(dims.count());
  util::Rng rng(seed);
  std::size_t i = 0;
  for (std::size_t x = 0; x < dims.d0; ++x) {
    for (std::size_t y = 0; y < dims.d1; ++y) {
      for (std::size_t z = 0; z < dims.d2; ++z) {
        data[i++] = static_cast<float>(
            std::sin(0.13 * static_cast<double>(x)) *
                std::cos(0.09 * static_cast<double>(y)) +
            0.3 * std::sin(0.21 * static_cast<double>(z)) + noise * rng.normal());
      }
    }
  }
  return data;
}

/// Reference slice: the region cut out of a full decode.
std::vector<float> slice(const std::vector<float>& full, const Region& r,
                         const Dims& dims) {
  std::vector<float> out(r.count());
  for_each_region_row(r, dims, [&](std::size_t g, std::size_t len, std::size_t o) {
    std::memcpy(out.data() + o, full.data() + g, len * sizeof(float));
  });
  return out;
}

void expect_region_matches(std::span<const std::uint8_t> blob,
                           const std::vector<float>& full, const Region& r,
                           const Dims& dims,
                           std::initializer_list<unsigned> thread_counts = {1u, 2u, 8u}) {
  for (const unsigned threads : thread_counts) {
    const auto got = decompress_region<float>(blob, r, threads);
    const auto want = slice(full, r, dims);
    ASSERT_EQ(got.size(), want.size());
    if (!want.empty()) {
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
          << "region [" << r.lo[0] << "," << r.hi[0] << ")x[" << r.lo[1] << ","
          << r.hi[1] << ")x[" << r.lo[2] << "," << r.hi[2] << ") threads=" << threads
          << " simd=" << util::simd_name(util::simd_active());
    }
  }
}

// ---- dims.h helper units ---------------------------------------------------

TEST(DimsHelpers, ElementCountChecksOverflow) {
  EXPECT_EQ(element_count(Dims::make_3d(4, 5, 6)), 120u);
  const std::size_t big = std::size_t{1} << (sizeof(std::size_t) * 4);
  EXPECT_THROW(element_count(Dims{big, big, 2}), std::overflow_error);
}

TEST(DimsHelpers, StridesAndAxis) {
  const Dims d = Dims::make_3d(4, 5, 6);
  const auto st = strides_of(d);
  EXPECT_EQ(st[0], 30u);
  EXPECT_EQ(st[1], 6u);
  EXPECT_EQ(st[2], 1u);
  EXPECT_EQ(slowest_nonunit_axis(d), 0);
  EXPECT_EQ(slowest_nonunit_axis(Dims::make_2d(5, 6)), 1);
  EXPECT_EQ(slowest_nonunit_axis(Dims::make_1d(6)), 2);
  EXPECT_EQ(slowest_nonunit_axis(Dims{1, 1, 1}), 2);
}

TEST(DimsHelpers, ValidateAndClamp) {
  const Dims d = Dims::make_3d(4, 5, 6);
  EXPECT_NO_THROW(validate_region(Region::of(d), d));
  EXPECT_NO_THROW(validate_region(Region{{1, 1, 1}, {1, 1, 1}}, d));  // empty
  EXPECT_THROW(validate_region(Region{{2, 0, 0}, {1, 5, 6}}, d), std::invalid_argument);
  EXPECT_THROW(validate_region(Region{{0, 0, 0}, {4, 5, 7}}, d), std::invalid_argument);

  const Region clamped = clamp_region(Region{{2, 9, 3}, {9, 1, 9}}, d);
  EXPECT_NO_THROW(validate_region(clamped, d));
  EXPECT_EQ(clamped.lo[0], 2u);
  EXPECT_EQ(clamped.hi[0], 4u);
  EXPECT_TRUE(clamped.empty());  // y was inverted after clamping
}

TEST(DimsHelpers, IntersectAndCount) {
  const Region a{{0, 0, 0}, {4, 4, 4}};
  const Region b{{2, 2, 2}, {8, 8, 8}};
  const Region i = intersect(a, b);
  EXPECT_EQ(i, (Region{{2, 2, 2}, {4, 4, 4}}));
  EXPECT_EQ(i.count(), 8u);
  EXPECT_TRUE(intersect(a, Region{{4, 0, 0}, {5, 4, 4}}).empty());
}

TEST(DimsHelpers, CoveringRegionIsMinimalAndContiguous) {
  const Dims d = Dims::make_3d(4, 5, 6);
  // Multi-plane interval -> whole planes.
  EXPECT_EQ(covering_region(d, 7, 65), (Region{{0, 0, 0}, {3, 5, 6}}));
  // Single plane -> whole rows of that plane ([37,49) touches rows 1..3).
  EXPECT_EQ(covering_region(d, 37, 49), (Region{{1, 1, 0}, {2, 4, 6}}));
  // Single row -> the exact chunk.
  EXPECT_EQ(covering_region(d, 38, 41), (Region{{1, 1, 2}, {2, 2, 5}}));
  // Empty interval.
  EXPECT_TRUE(covering_region(d, 12, 12).empty());
  EXPECT_THROW(covering_region(d, 10, 9), std::invalid_argument);
  EXPECT_THROW(covering_region(d, 0, 121), std::invalid_argument);

  // Contiguity invariant: the covering box's flat range brackets the
  // interval and region_flat_lo addresses its buffer.
  const Region c = covering_region(d, 37, 49);
  EXPECT_LE(region_flat_lo(c, d), 37u);
  EXPECT_GE(region_flat_lo(c, d) + c.count(), 49u);
}

// ---- decompress_region property sweep --------------------------------------

struct RegionCase {
  Dims dims;
  std::uint64_t seed;
};

class RegionReadSweep : public ::testing::TestWithParam<RegionCase> {};

TEST_P(RegionReadSweep, MatchesSliceOfFullDecode) {
  const auto& [dims, seed] = GetParam();
  const std::vector<float> data = smooth_field(dims, seed);
  Params params;
  params.error_bound = 1e-3;
  const auto blob = compress<float>(data, dims, params);
  const auto full = decompress<float>(blob);

  // Degenerate requests first: full field, single element, empty box.
  expect_region_matches(blob, full, Region::of(dims), dims);
  expect_region_matches(blob, full,
                        Region{{dims.d0 / 2, dims.d1 / 2, dims.d2 / 2},
                               {dims.d0 / 2 + 1, dims.d1 / 2 + 1, dims.d2 / 2 + 1}},
                        dims);
  expect_region_matches(blob, full, Region{{0, 0, 0}, {0, dims.d1, dims.d2}}, dims);

  // Random boxes (deterministic; may be empty on some axes).
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < 12; ++i) {
    Region r;
    const std::array<std::size_t, 3> ext{dims.d0, dims.d1, dims.d2};
    for (int a = 0; a < 3; ++a) {
      const auto lo = static_cast<std::size_t>(rng.uniform_index(ext[a] + 1));
      const auto hi =
          lo + static_cast<std::size_t>(rng.uniform_index(ext[a] - lo + 1));
      r.lo[a] = lo;
      r.hi[a] = hi;
    }
    expect_region_matches(blob, full, r, dims);
  }

  // The block decoder's placements, at every SIMD level: (a) the
  // whole field, all blocks in place; (b) a slab along the block axis
  // that starts and ends mid-block, so partial blocks are staged around
  // the in-place ones; (c) the full block axis with a partial inner box,
  // whose rows are not contiguous, so whole blocks are staged.
  const int axis = slowest_nonunit_axis(dims);
  const std::size_t half = extent(split_blocks(dims).front().dims, axis) / 2;
  std::vector<Region> placements{Region::of(dims)};
  Region mid = Region::of(dims);
  mid.lo[axis] = half;
  mid.hi[axis] = extent(dims, axis) - half;
  placements.push_back(mid);
  if (axis < 2) {
    Region inner = Region::of(dims);
    inner.lo[axis + 1] = 1;
    inner.hi[axis + 1] = extent(dims, axis + 1) - 1;
    placements.push_back(inner);
  }
  testsupport::ActiveGuard guard;
  for (const util::Simd level : testsupport::available_levels()) {
    util::simd_set_active(level);
    for (const Region& r : placements) {
      expect_region_matches(blob, full, r, dims, {1u, 3u, 0u});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RegionReadSweep,
    ::testing::Values(RegionCase{Dims::make_3d(128, 32, 32), 11},  // 4 blocks on d0
                      RegionCase{Dims::make_2d(512, 512), 12},     // 8 blocks on d1
                      RegionCase{Dims::make_1d(262144), 13},       // 8 blocks on d2
                      RegionCase{Dims::make_3d(16, 16, 16), 14},  // single block
                      RegionCase{Dims::make_3d(72, 128, 64), 15})); // 18 blocks: lane groups

// ---- block-decode accounting -----------------------------------------------

TEST(RegionRead, DecodesOnlyIntersectingBlocks) {
  // 128x32x32 -> exactly 4 slabs of 32 planes along d0.
  const Dims dims = Dims::make_3d(128, 32, 32);
  const std::vector<float> data = smooth_field(dims, 7);
  Params params;
  params.error_bound = 1e-3;
  const auto blob = compress<float>(data, dims, params);
  ASSERT_EQ(inspect(blob).block_count, 4u);
  const auto full = decompress<float>(blob);

  struct Pin {
    Region region;
    std::uint64_t expect_decoded;
  };
  const Pin pins[] = {
      {Region{{0, 0, 0}, {32, 32, 32}}, 1},     // exactly slab 0
      {Region{{31, 0, 0}, {33, 32, 32}}, 2},    // straddles slabs 0|1
      {Region{{64, 5, 9}, {65, 6, 10}}, 1},     // single element, slab 2
      {Region{{0, 0, 0}, {128, 32, 32}}, 4},    // full field
      {Region{{96, 0, 0}, {96, 32, 32}}, 0},    // empty selection
  };
  for (const Pin& pin : pins) {
    RegionDecodeStats stats;
    const auto got = decompress_region<float>(blob, pin.region, 2, &stats);
    EXPECT_TRUE(stats.used_block_index || pin.region.empty());
    EXPECT_EQ(stats.blocks_total, 4u);
    EXPECT_EQ(stats.blocks_decoded, pin.expect_decoded);
    const auto want = slice(full, pin.region, dims);
    ASSERT_EQ(got.size(), want.size());
    if (!want.empty()) {
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)));
    }
  }

  // Lane grouping never decodes a neighbour: with 18 equal blocks, enough
  // for a full lane group at every vector level, a one-plane request
  // entropy-decodes exactly 1 block and a request over two blocks exactly
  // 2 — counted by the process-wide decode counter, not just the stats.
  const Dims wide = Dims::make_3d(72, 128, 64);  // 18 slabs of 4 planes
  const auto wide_blob = compress<float>(smooth_field(wide, 8), wide, params);
  ASSERT_EQ(inspect(wide_blob).block_count, 18u);
  const Pin wide_pins[] = {
      {Region{{9, 0, 0}, {10, 128, 64}}, 1},   // one plane
      {Region{{3, 0, 0}, {5, 128, 64}}, 2},    // straddles slabs 0|1
      {Region{{8, 0, 0}, {16, 128, 64}}, 2},   // exactly slabs 2 and 3
      {Region{{0, 0, 0}, {72, 128, 64}}, 18},  // full field
  };
  testsupport::ActiveGuard guard;
  for (const util::Simd level : testsupport::available_levels()) {
    util::simd_set_active(level);
    for (const Pin& pin : wide_pins) {
      for (const unsigned threads : {1u, 3u}) {
        const auto& counter = util::metrics::Registry::get().sz_blocks_decoded;
        const std::uint64_t before = counter.get();
        RegionDecodeStats stats;
        decompress_region<float>(wide_blob, pin.region, threads, &stats);
        EXPECT_EQ(stats.blocks_decoded, pin.expect_decoded);
        EXPECT_EQ(counter.get() - before, pin.expect_decoded)
            << "planes [" << pin.region.lo[0] << "," << pin.region.hi[0] << ") at "
            << util::simd_name(level) << " threads " << threads;
      }
    }
  }
}

TEST(RegionRead, LzPayloadStillSupportsPartialDecode) {
  // Writers no longer emit LZ; the checked-in v4 + LZ blob keeps the
  // legacy path honest: one whole-payload expansion, then only the
  // blocks the request touches.
  const auto blob = testsupport::load_fixture(testsupport::kV4Lz);
  const Dims dims = testsupport::kV4Lz.dims;
  ASSERT_TRUE(inspect(blob).lz_applied);

  const auto full = decompress<float>(blob);
  ASSERT_EQ(testsupport::fnv1a(full), testsupport::kV4Lz.decoded_fnv1a);
  const Region r{{40, 3, 0}, {71, 30, 32}};
  RegionDecodeStats stats;
  const auto got = decompress_region<float>(blob, r, 1, &stats);
  EXPECT_TRUE(stats.used_block_index);
  EXPECT_LT(stats.blocks_decoded, stats.blocks_total);
  const auto want = slice(full, r, dims);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)));
}

TEST(RegionRead, V5PlaneDecodesAndVerifiesOnlyItsBlock) {
  // A near-constant field: the blob is v5 with run tokens, and an x-plane
  // read touches one of its four 32-plane blocks. No whole-payload pass
  // stands in the way, so kBlock decodes and CRC-checks that block alone.
  const Dims dims = Dims::make_3d(128, 32, 32);
  const std::vector<float> data = smooth_field(dims, 21, /*noise=*/0.0);
  Params params;
  params.error_bound = 0.05;
  const auto blob = compress<float>(data, dims, params);
  const HeaderInfo info = inspect(blob);
  ASSERT_EQ(info.version, 5u);
  ASSERT_TRUE(info.run_tokens);
  ASSERT_EQ(info.block_count, 4u);

  const auto full = decompress<float>(blob);
  const Region plane{{40, 0, 0}, {41, 32, 32}};
  RegionDecodeStats stats;
  const auto got = decompress_region<float>(blob, plane, 1, &stats, VerifyMode::kBlock);
  EXPECT_EQ(stats.blocks_total, 4u);
  EXPECT_EQ(stats.blocks_decoded, 1u);
  EXPECT_EQ(stats.blocks_verified, 1u);
  const auto want = slice(full, plane, dims);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)));

  // Damage in another block's substream is never read by the plane...
  const std::vector<BlockInfo> index = inspect_blocks(blob);
  std::uint64_t huff_total = 0, outliers = 0;
  for (const BlockInfo& b : index) {
    huff_total += b.huff_bytes;
    outliers += b.outlier_count;
  }
  const std::uint64_t codebook = info.payload_raw_size - huff_total - outliers * sizeof(float);
  const std::size_t block3 = static_cast<std::size_t>(
      info.header_size + codebook + index[0].huff_bytes + index[1].huff_bytes +
      index[2].huff_bytes);
  auto bad = blob;
  bad[block3 + index[3].huff_bytes / 2] ^= 0x10;
  const auto again = decompress_region<float>(bad, plane, 1, &stats, VerifyMode::kBlock);
  EXPECT_EQ(0, std::memcmp(again.data(), want.data(), want.size() * sizeof(float)));
  // ...while any read of that block, and the blob-level check, refuse it.
  const Region last{{100, 0, 0}, {101, 32, 32}};
  EXPECT_THROW(decompress_region<float>(bad, last, 1, nullptr, VerifyMode::kBlock),
               std::runtime_error);
  EXPECT_THROW(decompress_region<float>(bad, plane, 1, nullptr, VerifyMode::kBlob),
               std::runtime_error);
}

TEST(RegionRead, OutSpanFormAndForeignExtentsFallback) {
  const Dims dims = Dims::make_3d(128, 32, 32);
  Params params;
  params.error_bound = 1e-3;
  const auto blob = compress<float>(smooth_field(dims, 31), dims, params);
  const auto full = decompress<float>(blob);

  // Out-span form in the stored extents: block-indexed, straight into the
  // caller's buffer.
  const Region r{{40, 3, 0}, {71, 30, 32}};
  std::vector<float> into(r.count());
  RegionDecodeStats stats;
  decompress_region_into<float>(blob, r, std::span<float>(into), 1, &stats);
  EXPECT_TRUE(stats.used_block_index);
  const auto want = slice(full, r, dims);
  EXPECT_EQ(0, std::memcmp(into.data(), want.data(), want.size() * sizeof(float)));
  std::vector<float> short_buf(r.count() - 1);
  EXPECT_THROW(decompress_region_into<float>(blob, r, std::span<float>(short_buf)),
               std::invalid_argument);

  // The same blob seen as a flat {1,1,n} run: extents other than the
  // stored ones decode whole and slice in the caller's coordinates.
  const Dims flat = Dims::make_1d(dims.count());
  const Region run{{0, 0, 1000}, {1, 1, 70000}};
  std::vector<float> got(run.count());
  decompress_region_into<float>(blob, run, std::span<float>(got), 2, &stats,
                                VerifyMode::kBlock, &flat);
  EXPECT_FALSE(stats.used_block_index);
  EXPECT_EQ(0, std::memcmp(got.data(), full.data() + 1000, got.size() * sizeof(float)));
  const Dims wrong = Dims::make_1d(dims.count() + 1);
  EXPECT_THROW(decompress_region_into<float>(blob, run, std::span<float>(got), 1, nullptr,
                                             VerifyMode::kBlock, &wrong),
               std::invalid_argument);
}

// ---- v1 fallback -----------------------------------------------------------

TEST(RegionRead, V1BlobFallsBackToFullDecodeAndSlice) {
  const Dims dims = Dims::make_3d(64, 32, 32);
  const std::vector<float> data = smooth_field(dims, 31);
  const auto v1 = testsupport::build_v1_blob(data, dims, 1e-3, 32768);
  ASSERT_EQ(inspect(v1).version, 1u);
  const auto full = decompress<float>(v1);

  const Region regions[] = {
      Region::of(dims),
      Region{{10, 4, 7}, {20, 30, 21}},
      Region{{63, 31, 31}, {64, 32, 32}},
  };
  for (const Region& r : regions) {
    RegionDecodeStats stats;
    const auto got = decompress_region<float>(v1, r, 4, &stats);
    EXPECT_FALSE(stats.used_block_index);
    EXPECT_EQ(stats.blocks_total, 1u);
    EXPECT_EQ(stats.blocks_decoded, 1u);
    const auto want = slice(full, r, dims);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)));
  }
}

// ---- malformed requests ----------------------------------------------------

TEST(RegionRead, MalformedRequestsThrow) {
  const Dims dims = Dims::make_3d(64, 16, 16);
  const std::vector<float> data = smooth_field(dims, 41);
  Params params;
  params.error_bound = 1e-3;
  const auto v2 = compress<float>(data, dims, params);
  const auto v1 = testsupport::build_v1_blob(data, dims, 1e-3, 32768);

  for (const auto* blob : {&v2, &v1}) {
    // Inverted lo/hi.
    EXPECT_THROW(decompress_region<float>(*blob, Region{{5, 0, 0}, {4, 16, 16}}),
                 std::invalid_argument);
    // Out of bounds.
    EXPECT_THROW(decompress_region<float>(*blob, Region{{0, 0, 0}, {65, 16, 16}}),
                 std::invalid_argument);
    EXPECT_THROW(decompress_region<float>(*blob, Region{{0, 0, 16}, {64, 16, 17}}),
                 std::invalid_argument);
    // Element-type mismatch is a runtime (container) error.
    EXPECT_THROW(decompress_region<double>(*blob, Region{{0, 0, 0}, {1, 1, 1}}),
                 std::runtime_error);
  }
}

// ---- block index inspection ------------------------------------------------

TEST(RegionRead, InspectBlocksMatchesHeaderTotals) {
  const Dims dims = Dims::make_3d(128, 32, 32);
  const std::vector<float> data = smooth_field(dims, 51);
  Params params;
  params.error_bound = 1e-3;
  const auto blob = compress<float>(data, dims, params);
  const HeaderInfo info = inspect(blob);

  const auto blocks = inspect_blocks(blob);
  ASSERT_EQ(blocks.size(), info.block_count);
  std::uint64_t elems = 0, outliers = 0, stored = 0;
  for (const BlockInfo& b : blocks) {
    EXPECT_GT(b.elem_count, 0u);
    elems += b.elem_count;
    outliers += b.outlier_count;
    stored += b.stored_bytes(sizeof(float));
  }
  EXPECT_EQ(elems, dims.count());
  EXPECT_EQ(outliers, info.outlier_count);
  // Per-block stored bytes plus the shared codebook account for the whole
  // pre-LZ payload.
  EXPECT_LE(stored, info.payload_raw_size);

  // v1 synthesizes a single whole-field entry.
  const auto v1 = testsupport::build_v1_blob(data, dims, 1e-3, 32768);
  const auto v1_blocks = inspect_blocks(v1);
  ASSERT_EQ(v1_blocks.size(), 1u);
  EXPECT_EQ(v1_blocks[0].elem_count, dims.count());
}

}  // namespace
}  // namespace pcw::sz

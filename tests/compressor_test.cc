#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sz/blocks.h"
#include "sz/compressor.h"
#include "sz/huffman.h"
#include "sz/lorenzo.h"
#include "support/build_v1_blob.h"
#include "support/legacy_fixtures.h"
#include "support/simd_levels.h"
#include "util/bitstream.h"
#include "util/pod_io.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

std::vector<float> smooth_field(std::size_t n, std::uint64_t seed, double noise = 0.01) {
  std::vector<float> data(n * n * n);
  util::Rng rng(seed);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t z = 0; z < n; ++z) {
        data[(x * n + y) * n + z] = static_cast<float>(
            std::sin(0.13 * static_cast<double>(x)) *
                std::cos(0.09 * static_cast<double>(y)) +
            0.3 * std::sin(0.21 * static_cast<double>(z)) + noise * rng.normal());
      }
    }
  }
  return data;
}

template <typename T>
double max_abs_err(const std::vector<T>& a, const std::vector<T>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

TEST(Compressor, RoundTripRespectsAbsoluteBound) {
  const auto data = smooth_field(32, 1);
  const Dims dims = Dims::make_3d(32, 32, 32);
  for (const double eb : {1e-1, 1e-2, 1e-4}) {
    Params p;
    p.error_bound = eb;
    const auto blob = compress<float>(data, dims, p);
    Dims parsed;
    const auto rec = decompress<float>(blob, &parsed);
    EXPECT_EQ(parsed, dims);
    EXPECT_LE(max_abs_err(data, rec), eb);
  }
}

TEST(Compressor, RoundTripDouble) {
  util::Rng rng(2);
  std::vector<double> data(17 * 19 * 23);
  double v = 0.0;
  for (auto& x : data) {
    v += 0.01 * rng.normal();
    x = v;
  }
  const Dims dims = Dims::make_3d(17, 19, 23);
  Params p;
  p.error_bound = 1e-8;
  const auto rec = decompress<double>(compress<double>(data, dims, p));
  EXPECT_LE(max_abs_err(data, rec), 1e-8);
}

TEST(Compressor, RelativeModeScalesWithRange) {
  auto data = smooth_field(24, 3);
  for (auto& x : data) x *= 1000.0f;  // range ~ +-1300
  const Dims dims = Dims::make_3d(24, 24, 24);
  Params p;
  p.mode = ErrorBoundMode::kRelative;
  p.error_bound = 1e-4;
  const double abs_eb = resolve_error_bound<float>(data, p);
  EXPECT_GT(abs_eb, 0.01);  // relative bound resolves against the range
  const auto rec = decompress<float>(compress<float>(data, dims, p));
  EXPECT_LE(max_abs_err(data, rec), abs_eb * (1 + 1e-12));
}

TEST(Compressor, RelativeModeOnConstantData) {
  const std::vector<float> data(512, 7.0f);
  Params p;
  p.mode = ErrorBoundMode::kRelative;
  p.error_bound = 1e-3;
  const auto rec = decompress<float>(compress<float>(data, Dims::make_1d(512), p));
  EXPECT_LE(max_abs_err(data, rec), 1e-3);
}

TEST(Compressor, TighterBoundsLowerRatio) {
  const auto data = smooth_field(32, 4);
  const Dims dims = Dims::make_3d(32, 32, 32);
  double prev_size = 0.0;
  for (const double eb : {1e-1, 1e-2, 1e-3, 1e-4}) {
    Params p;
    p.error_bound = eb;
    const auto blob = compress<float>(data, dims, p);
    EXPECT_GT(static_cast<double>(blob.size()), prev_size) << "eb=" << eb;
    prev_size = static_cast<double>(blob.size());
  }
}

TEST(Compressor, SmoothDataBeatsLosslessFloor) {
  const auto data = smooth_field(32, 5);
  const Dims dims = Dims::make_3d(32, 32, 32);
  Params p;
  p.error_bound = 1e-2;
  const auto blob = compress<float>(data, dims, p);
  EXPECT_GT(compression_ratio<float>(blob.size(), data.size()), 4.0);
}

TEST(Compressor, ConstantFieldCompressesExtremely) {
  const std::vector<float> data(64 * 64, 1.25f);
  Params p;
  p.error_bound = 1e-5;
  const auto blob = compress<float>(data, Dims::make_2d(64, 64), p);
  EXPECT_GT(compression_ratio<float>(blob.size(), data.size()), 50.0);
  const auto rec = decompress<float>(blob);
  EXPECT_LE(max_abs_err(data, rec), 1e-5);
}

TEST(Compressor, HeaderInspectionMatchesInputs) {
  const auto data = smooth_field(16, 6);
  const Dims dims = Dims::make_3d(16, 16, 16);
  Params p;
  p.error_bound = 1e-3;
  p.radius = 1024;
  const auto blob = compress<float>(data, dims, p);
  const HeaderInfo info = inspect(blob);
  EXPECT_EQ(info.dtype, DataType::kFloat32);
  EXPECT_EQ(info.dims, dims);
  EXPECT_DOUBLE_EQ(info.abs_error_bound, 1e-3);
  EXPECT_EQ(info.radius, 1024u);
  EXPECT_GT(info.payload_raw_size, 0u);
}

TEST(Compressor, RunTokensCodeBelowOneBitPerValue) {
  // A very loose bound sends almost all codes to the zero-residual bin;
  // run tokens must take the field below Huffman's 1-bit floor.
  const auto data = smooth_field(32, 7, 0.0);
  const Dims dims = Dims::make_3d(32, 32, 32);
  Params with_runs;
  with_runs.error_bound = 0.5;
  Params without_runs = with_runs;
  without_runs.lossless = false;
  const auto small = compress<float>(data, dims, with_runs);
  const auto big = compress<float>(data, dims, without_runs);
  EXPECT_LT(bit_rate(small.size(), data.size()), 1.0);
  EXPECT_GE(bit_rate(big.size(), data.size()), 1.0);
  EXPECT_LT(small.size(), big.size());
  for (const auto* blob : {&small, &big}) {
    EXPECT_EQ(inspect(*blob).version, 5u);
    EXPECT_FALSE(inspect(*blob).lz_applied);
  }
  EXPECT_TRUE(inspect(small).run_tokens);
  EXPECT_FALSE(inspect(big).run_tokens);
  // Both decode identically within bound.
  EXPECT_LE(max_abs_err(data, decompress<float>(small)), 0.5);
  EXPECT_LE(max_abs_err(data, decompress<float>(big)), 0.5);
}

TEST(Compressor, ConstantFieldCodesAsRunTokensOnly) {
  // Every code is the zero residual (after each block's first point), so
  // each block is a few 4096-code tokens and a short tail; 8 equal blocks
  // of 4x64x128 can even leave a codebook of token symbols alone.
  for (const Dims& dims : {Dims::make_3d(32, 64, 128), Dims::make_1d(32768 * 2 + 4099)}) {
    const std::vector<float> data(dims.count(), 1.25f);
    Params p;
    p.error_bound = 1e-3;
    const auto blob = compress<float>(data, dims, p);
    EXPECT_TRUE(inspect(blob).run_tokens);
    EXPECT_LT(bit_rate(blob.size(), data.size()), 0.1);
    EXPECT_LE(max_abs_err(data, decompress<float>(blob)), 1e-3);
  }
}

TEST(Compressor, LegacyLzFixtureDecodesBitExactly) {
  // Writers no longer run the LZ stage; a checked-in v4 + LZ blob pins
  // that the reader still expands it bit for bit, under every verify mode.
  const auto blob = testsupport::load_fixture(testsupport::kV4Lz);
  const HeaderInfo info = inspect(blob);
  EXPECT_EQ(info.version, testsupport::kV4Lz.version);
  EXPECT_TRUE(info.lz_applied);
  EXPECT_FALSE(info.run_tokens);
  for (const VerifyMode mode : {VerifyMode::kOff, VerifyMode::kBlob, VerifyMode::kBlock}) {
    Dims dims;
    const auto out = decompress<float>(blob, &dims, 2, mode);
    EXPECT_EQ(dims, testsupport::kV4Lz.dims);
    EXPECT_EQ(testsupport::fnv1a(out), testsupport::kV4Lz.decoded_fnv1a);
  }
}

TEST(Compressor, LegacyBlobsDecodeBitExactlyAtEveryLevel) {
  // Every reader path for a writer that is gone, pinned by the hash of
  // its decoded output: the checked-in v2/v3 (plain and LZ) and v4 + LZ
  // fixtures, and a v1 blob built by the reference writer. Whole-field
  // decodes run at every SIMD level and two thread counts; region reads
  // of the plain fixtures must equal the matching slice of the full one.
  using testsupport::fnv1a;
  using testsupport::LegacyFixture;
  struct Case {
    std::vector<std::uint8_t> blob;
    Dims dims;
    std::uint32_t version;
    std::uint64_t decoded_fnv1a;
    std::vector<float> prev;  // reference step for temporal blocks
  };
  auto from = [](const LegacyFixture& f, std::vector<float> prev = {}) {
    return Case{testsupport::load_fixture(f), f.dims, f.version, f.decoded_fnv1a,
                std::move(prev)};
  };
  const auto v2_lz = testsupport::load_fixture(testsupport::kV2Lz);
  const auto v2_plain = testsupport::load_fixture(testsupport::kV2Plain);
  const Dims v1_dims = Dims::make_3d(40, 48, 48);
  std::vector<Case> cases;
  cases.push_back({testsupport::build_v1_blob(testsupport::golden_field<float>(v1_dims, 18),
                                              v1_dims, 1e-1, 32768),
                   v1_dims, 1, 0x8b288f137d4a968aull, {}});
  cases.push_back(from(testsupport::kV2Lz));
  cases.push_back(from(testsupport::kV3Lz, decompress<float>(v2_lz)));
  cases.push_back(from(testsupport::kV4Lz));
  cases.push_back(from(testsupport::kV2Plain));
  cases.push_back(from(testsupport::kV3Plain, decompress<float>(v2_plain)));

  // The v3 fixture keeps both predictors: slabs 0-1 temporal, 2-3 spatial.
  const auto v3_blocks = inspect_blocks(cases.back().blob);
  ASSERT_EQ(v3_blocks.size(), 4u);
  EXPECT_EQ(v3_blocks[0].predictor, Predictor::kTemporal);
  EXPECT_EQ(v3_blocks[1].predictor, Predictor::kTemporal);
  EXPECT_EQ(v3_blocks[2].predictor, Predictor::kSpatial);
  EXPECT_EQ(v3_blocks[3].predictor, Predictor::kSpatial);

  // Boxes inside one slab, across all four, and a single plane.
  const Region regions[] = {{{1, 5, 3}, {7, 60, 61}},
                            {{3, 0, 10}, {29, 64, 20}},
                            {{17, 0, 0}, {18, 64, 64}}};
  auto slice = [](const std::vector<float>& v, const Region& r, const Dims& d) {
    std::vector<float> out(r.count());
    for_each_region_row(r, d, [&](std::size_t g, std::size_t len, std::size_t o) {
      std::memcpy(out.data() + o, v.data() + g, len * sizeof(float));
    });
    return out;
  };

  testsupport::ActiveGuard guard;
  for (const util::Simd level : testsupport::available_levels()) {
    util::simd_set_active(level);
    for (const Case& c : cases) {
      ASSERT_EQ(inspect(c.blob).version, c.version);
      const std::span<const float> prev(c.prev);
      for (const unsigned threads : {1u, 3u}) {
        Dims dims;
        const auto full = decompress<float>(c.blob, prev, &dims, threads);
        EXPECT_EQ(dims, c.dims);
        EXPECT_EQ(fnv1a(full), c.decoded_fnv1a)
            << "v" << c.version << " at " << util::simd_name(level) << ", threads="
            << threads;
        if (c.dims != testsupport::kV2Plain.dims) continue;
        for (const Region& r : regions) {
          const auto prev_region =
              c.prev.empty() ? std::vector<float>{} : slice(c.prev, r, c.dims);
          const auto got = decompress_region<float>(
              c.blob, r, std::span<const float>(prev_region), threads);
          EXPECT_EQ(got, slice(full, r, c.dims))
              << "v" << c.version << " region at " << util::simd_name(level)
              << ", threads=" << threads;
        }
      }
    }
  }
}

/// Decodes a v5 stencil fixture whole and by regions at every SIMD
/// level and two thread counts, and verifies it deeply.
template <typename T>
void expect_v5_stencil_fixture(const testsupport::LegacyFixture& f,
                               const std::vector<T>& prev, std::span<const Region> regions) {
  const auto blob = testsupport::load_fixture(f);
  const HeaderInfo info = inspect(blob);
  ASSERT_EQ(info.version, 5u) << f.file;
  EXPECT_TRUE(info.run_tokens) << f.file;
  EXPECT_EQ(info.lattice_blocks, 0u) << f.file;
  EXPECT_GT(info.block_count, info.temporal_blocks) << f.file;
  const BlobVerifyReport deep = verify_blob(blob, /*deep=*/true);
  EXPECT_TRUE(deep.ok) << f.file << ": " << deep.detail;
  auto slice = [&](const std::vector<T>& v, const Region& r) {
    std::vector<T> out(r.count());
    for_each_region_row(r, f.dims, [&](std::size_t g, std::size_t len, std::size_t o) {
      std::memcpy(out.data() + o, v.data() + g, len * sizeof(T));
    });
    return out;
  };
  testsupport::ActiveGuard guard;
  for (const util::Simd level : testsupport::available_levels()) {
    util::simd_set_active(level);
    for (const unsigned threads : {1u, 3u}) {
      Dims dims;
      const auto full = decompress<T>(blob, std::span<const T>(prev), &dims, threads);
      EXPECT_EQ(dims, f.dims);
      EXPECT_EQ(testsupport::fnv1a(full), f.decoded_fnv1a)
          << f.file << " at " << util::simd_name(level) << ", threads=" << threads;
      for (const Region& r : regions) {
        const auto prev_region = prev.empty() ? std::vector<T>{} : slice(prev, r);
        const auto got =
            decompress_region<T>(blob, r, std::span<const T>(prev_region), threads);
        EXPECT_EQ(got, slice(full, r))
            << f.file << " region at " << util::simd_name(level) << ", threads=" << threads;
      }
    }
  }
}

TEST(Compressor, V5StencilFixturesDecodeBitExactlyAtEveryLevel) {
  // The writer codes every spatial block with the lattice predictor; v5
  // blobs from the writer before it hold classic stencil blocks
  // (predictor byte 0), pinned by checked-in fixtures.
  const Region boxes[] = {{{1, 5, 3}, {7, 60, 61}},        // inside one slab
                          {{3, 0, 10}, {133, 64, 20}},     // across all 17
                          {{4, 0, 0}, {132, 64, 64}},      // whole inner slabs
                          {{67, 0, 0}, {68, 64, 64}}};     // one plane
  expect_v5_stencil_fixture<float>(testsupport::kV5StencilF32, {}, boxes);
  const auto key = decompress<float>(testsupport::load_fixture(testsupport::kV5StencilF32));
  const auto mixed = inspect_blocks(testsupport::load_fixture(testsupport::kV5StencilTemporal));
  ASSERT_EQ(mixed.size(), 17u);
  for (std::size_t b = 0; b < mixed.size(); ++b) {
    EXPECT_EQ(mixed[b].predictor, b < 8 ? Predictor::kTemporal : Predictor::kSpatial);
  }
  expect_v5_stencil_fixture<float>(testsupport::kV5StencilTemporal, key, boxes);
  const Region f64_boxes[] = {{{2, 3, 4}, {14, 60, 50}}, {{9, 0, 0}, {10, 64, 64}}};
  expect_v5_stencil_fixture<double>(testsupport::kV5StencilF64, {}, f64_boxes);
  const Region line[] = {{{0, 0, 1000}, {1, 1, 60000}}, {{0, 0, 99990}, {1, 1, 100000}}};
  expect_v5_stencil_fixture<float>(testsupport::kV5Stencil1d, {}, line);
}

TEST(Compressor, OneDimensionalData) {
  util::Rng rng(8);
  std::vector<float> data(100000);
  double v = 0.0;
  for (auto& x : data) {
    v = 0.999 * v + 0.05 * rng.normal();
    x = static_cast<float>(v);
  }
  Params p;
  p.error_bound = 1e-3;
  const auto blob = compress<float>(data, Dims::make_1d(data.size()), p);
  EXPECT_LE(max_abs_err(data, decompress<float>(blob)), 1e-3);
  EXPECT_GT(compression_ratio<float>(blob.size(), data.size()), 2.0);
}

TEST(Compressor, SingleElement) {
  const std::vector<float> data{3.14f};
  Params p;
  p.error_bound = 1e-3;
  const auto rec = decompress<float>(compress<float>(data, Dims::make_1d(1), p));
  EXPECT_NEAR(rec[0], 3.14f, 1e-3);
}

TEST(Compressor, RejectsEmptyData) {
  const std::vector<float> data;
  Params p;
  EXPECT_THROW(compress<float>(data, Dims::make_1d(0), p), std::invalid_argument);
}

TEST(Compressor, RejectsDimsMismatch) {
  const std::vector<float> data(10);
  Params p;
  EXPECT_THROW(compress<float>(data, Dims::make_1d(9), p), std::invalid_argument);
}

TEST(Compressor, RejectsBadErrorBound) {
  const std::vector<float> data(10);
  Params p;
  p.error_bound = -1e-3;
  EXPECT_THROW(compress<float>(data, Dims::make_1d(10), p), std::invalid_argument);
}

TEST(Compressor, DecompressRejectsGarbage) {
  std::vector<std::uint8_t> junk(100, 0xab);
  EXPECT_THROW(decompress<float>(junk), std::runtime_error);
}

TEST(Compressor, DecompressRejectsTruncatedBlob) {
  const auto data = smooth_field(16, 9);
  Params p;
  p.error_bound = 1e-3;
  auto blob = compress<float>(data, Dims::make_3d(16, 16, 16), p);
  blob.resize(blob.size() / 2);
  EXPECT_THROW(decompress<float>(blob), std::runtime_error);
}

TEST(Compressor, DecompressRejectsTypeMismatch) {
  const auto data = smooth_field(16, 10);
  Params p;
  p.error_bound = 1e-3;
  const auto blob = compress<float>(data, Dims::make_3d(16, 16, 16), p);
  EXPECT_THROW(decompress<double>(blob), std::runtime_error);
}

TEST(Compressor, DeterministicOutput) {
  const auto data = smooth_field(16, 11);
  Params p;
  p.error_bound = 1e-3;
  const auto a = compress<float>(data, Dims::make_3d(16, 16, 16), p);
  const auto b = compress<float>(data, Dims::make_3d(16, 16, 16), p);
  EXPECT_EQ(a, b);
}

TEST(Compressor, CodeArraysFromAnEarlierCallNeverLeak) {
  // The quantizers allocate their code arrays unwritten. Compressing a
  // noisy field A at a tight bound first leaves freed blocks full of its
  // codes for the next call's allocations to reuse; field B, of another
  // shape and bound, must still compress to exactly what a thread that
  // never ran A produces: spatial, without run tokens, and temporal.
  const auto a = smooth_field(64, 21, 0.5);
  Params pa;
  pa.error_bound = 1e-5;
  const std::size_t n = 200000;
  std::vector<float> b(n), b_next(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<float>(std::sin(1e-3 * static_cast<double>(i)));
    b_next[i] = b[i] + static_cast<float>(1e-4 * std::cos(3e-3 * static_cast<double>(i)));
  }
  const Dims db = Dims::make_1d(n);
  Params pb;
  pb.error_bound = 1e-3;
  Params plain = pb;
  plain.lossless = false;
  Params temporal = pb;
  temporal.predictor = Predictor::kTemporal;
  auto compress_b = [&] {
    std::vector<float> recon;
    std::vector<std::vector<std::uint8_t>> blobs;
    blobs.push_back(compress<float>(b, db, pb, {}, &recon));
    blobs.push_back(compress<float>(b, db, plain));
    blobs.push_back(compress<float>(b_next, db, temporal, recon));
    return blobs;
  };
  std::vector<std::vector<std::uint8_t>> fresh;
  std::thread([&] { fresh = compress_b(); }).join();
  ASSERT_GT(inspect(fresh[2]).temporal_blocks, 0u);
  for (int round = 0; round < 3; ++round) {
    (void)compress<float>(a, Dims::make_3d(64, 64, 64), pa);
    EXPECT_EQ(compress_b(), fresh) << "round " << round;
  }
}

TEST(Compressor, BitRateHelpers) {
  EXPECT_DOUBLE_EQ(bit_rate(100, 100), 8.0);
  EXPECT_DOUBLE_EQ(bit_rate(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(compression_ratio<float>(100, 100), 4.0);
}

// ---- container v2: block parallelism and robustness -----------------------

// Big enough for a multi-slab split (> kMinBlockElems, d0 > 1).
std::vector<float> multi_block_field(std::uint64_t seed) {
  std::vector<float> data(40 * 48 * 48);
  util::Rng rng(seed);
  double v = 0.0;
  for (auto& x : data) {
    v = 0.99 * v + 0.05 * rng.normal();
    x = static_cast<float>(v);
  }
  return data;
}

const Dims kMultiBlockDims = Dims::make_3d(40, 48, 48);

TEST(CompressorV2, MultiBlockFieldsActuallySplit) {
  const auto blocks = split_blocks(kMultiBlockDims);
  ASSERT_GT(blocks.size(), 1u);
  std::size_t covered = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.elem_offset, covered);
    covered += b.dims.count();
  }
  EXPECT_EQ(covered, kMultiBlockDims.count());
  // Small fields stay single-block (per-block overhead must amortize).
  EXPECT_EQ(split_blocks(Dims::make_3d(16, 16, 16)).size(), 1u);
}

TEST(CompressorV2, ThreadCountsProduceIdenticalBlobs) {
  const auto data = multi_block_field(21);
  Params p;
  p.error_bound = 1e-3;
  p.threads = 1;
  const auto serial = compress<float>(data, kMultiBlockDims, p);
  EXPECT_GT(inspect(serial).block_count, 1u);
  for (const unsigned threads : {2u, 5u, 0u}) {
    p.threads = threads;
    const auto parallel = compress<float>(data, kMultiBlockDims, p);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
  // Decode side: every thread count reconstructs the same bytes.
  const auto ref = decompress<float>(serial, nullptr, 1);
  for (const unsigned threads : {2u, 5u, 0u}) {
    const auto out = decompress<float>(serial, nullptr, threads);
    ASSERT_EQ(out.size(), ref.size());
    EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

TEST(CompressorV2, MultiBlockRoundTripRespectsBound) {
  const auto data = multi_block_field(22);
  for (const double eb : {1e-1, 1e-4}) {
    Params p;
    p.error_bound = eb;
    p.threads = 0;  // all hardware threads
    const auto blob = compress<float>(data, kMultiBlockDims, p);
    const HeaderInfo info = inspect(blob);
    EXPECT_EQ(info.version, 5u);
    EXPECT_GT(info.block_count, 1u);
    Dims dims_out;
    const auto rec = decompress<float>(blob, &dims_out, 0);
    EXPECT_EQ(dims_out, kMultiBlockDims);
    EXPECT_LE(max_abs_err(data, rec), eb);
  }
}

// Where each layout keeps its block count and block index, and the size
// of one index entry (docs/sz_container_v2.md, docs/integrity.md).
struct Layout {
  const char* name;
  std::size_t block_count_offset;
  std::size_t index_offset;
  std::size_t entry_bytes;
};
constexpr std::size_t kVersionOffset = 4;

// One multi-block blob per header layout the reader parses: the plain v2
// fixture, and a v5 blob without run tokens.
struct LayoutSample {
  Layout layout;
  std::vector<std::uint8_t> blob;
};
std::vector<LayoutSample> multi_block_samples() {
  Params p;
  p.error_bound = 1e-2;
  p.lossless = false;
  return {{{"v2", 76, 80, 24}, testsupport::load_fixture(testsupport::kV2Plain)},
          {{"v5", 96, 100, 29}, compress<float>(multi_block_field(23), kMultiBlockDims, p)}};
}

// Decoding `blob` must throw exactly `what`. No checksum verification,
// so a header or block CRC cannot answer before the check under test.
void expect_rejected(std::span<const std::uint8_t> blob, const std::string& what,
                     const char* layout) {
  try {
    decompress<float>(blob, nullptr, 1, VerifyMode::kOff);
    ADD_FAILURE() << layout << ": accepted, expected \"" << what << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), what) << layout;
  }
}

TEST(CompressorV2, RejectsTruncatedFixedHeader) {
  for (const LayoutSample& s : multi_block_samples()) {
    for (std::size_t keep = 0; keep < s.layout.index_offset; keep += 5) {
      expect_rejected(std::span(s.blob).first(keep), "sz: truncated header", s.layout.name);
    }
  }
}

TEST(CompressorV2, RejectsTruncatedBlockIndex) {
  for (const LayoutSample& s : multi_block_samples()) {
    ASSERT_GT(inspect(s.blob).block_count, 1u) << s.layout.name;
    // Cut inside the index: the fixed header parses, the index must throw.
    for (const std::size_t in_index : {std::size_t{0}, std::size_t{12},
                                       s.layout.entry_bytes + 3}) {
      expect_rejected(std::span(s.blob).first(s.layout.index_offset + in_index),
                      "sz: truncated header", s.layout.name);
    }
  }
}

TEST(CompressorV2, RejectsWrappingBlockIndexSums) {
  // Adding 2^63 to two entries leaves the (wrapping) sum equal to the
  // header total; the overflow-checked accumulation must still reject it,
  // or the per-block offsets would index far outside the payload.
  for (LayoutSample& s : multi_block_samples()) {
    ASSERT_GE(inspect(s.blob).block_count, 2u) << s.layout.name;
    for (const std::size_t entry : {0u, 1u}) {
      const std::size_t off =
          s.layout.index_offset + entry * s.layout.entry_bytes + 8;  // huff_bytes
      std::uint64_t v;
      std::memcpy(&v, s.blob.data() + off, sizeof v);
      v += 1ull << 63;
      std::memcpy(s.blob.data() + off, &v, sizeof v);
    }
    expect_rejected(s.blob, "sz: block index overflow", s.layout.name);
  }
}

TEST(CompressorV2, RejectsZeroBlockCount) {
  for (LayoutSample& s : multi_block_samples()) {
    const std::uint32_t zero = 0;
    std::memcpy(s.blob.data() + s.layout.block_count_offset, &zero, sizeof zero);
    expect_rejected(s.blob, "sz: zero block count", s.layout.name);
    EXPECT_THROW(inspect(s.blob), std::runtime_error) << s.layout.name;
  }
}

TEST(CompressorV2, RejectsCorruptCodebook) {
  for (LayoutSample& s : multi_block_samples()) {
    const std::size_t payload_start =
        s.layout.index_offset + inspect(s.blob).block_count * s.layout.entry_bytes;
    ASSERT_EQ(payload_start, inspect(s.blob).header_size) << s.layout.name;
    // An endless varint at the codebook head: must throw, not scan away.
    for (std::size_t i = 0; i < 5; ++i) s.blob[payload_start + i] = 0xff;
    expect_rejected(s.blob, "huffman: varint overflow", s.layout.name);
  }
}

TEST(CompressorV2, RejectsUnknownVersion) {
  for (LayoutSample& s : multi_block_samples()) {
    for (const int version : {0, 6, 255}) {
      s.blob[kVersionOffset] = static_cast<std::uint8_t>(version);
      expect_rejected(s.blob, "sz: unsupported version", s.layout.name);
    }
  }
}

TEST(CompressorV2, CrossVersionPatchingThrowsCleanly) {
  // A blob re-labelled v1 makes the decoder read the block index as a
  // codebook; it must fail validation, never crash (tier-1 runs ASan).
  for (LayoutSample& s : multi_block_samples()) {
    s.blob[kVersionOffset] = 1;
    EXPECT_THROW(decompress<float>(s.blob), std::runtime_error) << s.layout.name;
  }
}

// The reference v1 writer lives in tests/support/build_v1_blob.h, shared
// with the region-read suite.
using pcw::testsupport::build_v1_blob;

TEST(CompressorV2, V1BlobsStillDecodeBitIdentically) {
  const auto data = multi_block_field(24);
  const double eb = 1e-3;
  const std::uint32_t radius = 32768;
  const auto v1 = build_v1_blob(data, kMultiBlockDims, eb, radius);

  const HeaderInfo info = inspect(v1);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.block_count, 1u);

  // The exact bytes a v1 (single-stream) reconstruction produces.
  const auto quant = testsupport::lorenzo_quantize<float>(data, kMultiBlockDims, eb, radius);
  std::vector<float> expect(data.size());
  lorenzo_dequantize<float>(quant.codes, quant.outliers, kMultiBlockDims, eb, radius,
                            expect);

  for (const unsigned threads : {1u, 4u}) {
    Dims dims_out;
    const auto got = decompress<float>(v1, &dims_out, threads);
    EXPECT_EQ(dims_out, kMultiBlockDims);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)));
  }

  // A v1 blob re-labelled v2 must also fail cleanly, not crash.
  auto v1_as_v2 = v1;
  v1_as_v2[kVersionOffset] = 2;
  EXPECT_THROW(decompress<float>(v1_as_v2), std::runtime_error);
}

struct FieldCase {
  std::uint64_t seed;
  double eb;
  double noise;
};

class CompressorPropertySweep : public ::testing::TestWithParam<FieldCase> {};

TEST_P(CompressorPropertySweep, BoundAndRoundTripInvariants) {
  const auto [seed, eb, noise] = GetParam();
  const auto data = smooth_field(24, seed, noise);
  const Dims dims = Dims::make_3d(24, 24, 24);
  Params p;
  p.error_bound = eb;
  const auto blob = compress<float>(data, dims, p);
  const auto rec = decompress<float>(blob);
  ASSERT_EQ(rec.size(), data.size());
  EXPECT_LE(max_abs_err(data, rec), eb);
  // Re-compressing the reconstruction must stay within 2*eb of original
  // (idempotence up to quantization).
  const auto rec2 = decompress<float>(compress<float>(rec, dims, p));
  EXPECT_LE(max_abs_err(data, rec2), 2 * eb);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, CompressorPropertySweep,
    ::testing::Values(FieldCase{1, 1e-1, 0.01}, FieldCase{2, 1e-2, 0.01},
                      FieldCase{3, 1e-3, 0.05}, FieldCase{4, 1e-4, 0.0},
                      FieldCase{5, 1e-2, 0.5}, FieldCase{6, 1e-5, 0.01},
                      FieldCase{7, 0.5, 0.1}, FieldCase{8, 1e-6, 0.001}));

}  // namespace
}  // namespace pcw::sz

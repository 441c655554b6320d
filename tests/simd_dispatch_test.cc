// SIMD dispatch coverage: every vector level must produce blobs
// byte-identical to the scalar kernels and bit-exact decodes — the
// contract in docs/kernels.md that makes PCW_SIMD a pure speed knob.
// Exercises the lane quantize/dequantize groups (uniform and tail-block
// decompositions, float and double), temporal chains, decompress_region
// row scatter, tie-prone and non-finite values, and the multi-symbol
// Huffman decoder against truncated and corrupt streams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "sz/compressor.h"
#include "support/simd_levels.h"
#include "sz/huffman.h"
#include "util/bitstream.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

using testsupport::ActiveGuard;
using testsupport::available_levels;

template <typename T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Smooth field + persistent rough detail + drift, same shape the
/// temporal suite uses; `t` advances the smooth component only.
template <typename T>
std::vector<T> make_field(const Dims& dims, double t, double roughness = 0.05) {
  std::vector<T> data(dims.count());
  util::Rng rng(7);
  std::size_t i = 0;
  for (std::size_t x = 0; x < dims.d0; ++x) {
    for (std::size_t y = 0; y < dims.d1; ++y) {
      for (std::size_t z = 0; z < dims.d2; ++z, ++i) {
        data[i] = static_cast<T>(
            std::sin(0.11 * static_cast<double>(x) + 0.6 * t) *
                std::cos(0.07 * static_cast<double>(y) - 0.4 * t) +
            0.3 * std::sin(0.19 * static_cast<double>(z) + 0.2 * t) +
            roughness * rng.normal());
      }
    }
  }
  return data;
}

/// Thread counts every blob must be invariant under: serial (tasks count
/// codes straight into the shared histogram) and two pool sizes (each
/// task counts into its own and merges it).
constexpr unsigned kThreadCounts[] = {1, 3, 4};

/// Compress + decompress the same input at every available level and
/// thread count and require the scalar single-thread bytes everywhere
/// (and cross-level decode, since a blob from one level must decode
/// identically at any other).
template <typename T>
void expect_level_invariant(const std::vector<T>& data, const Dims& dims,
                            Params params) {
  ActiveGuard guard;
  util::simd_set_active(util::Simd::kScalar);
  params.threads = 1;
  const std::vector<std::uint8_t> ref_blob = compress<T>(data, dims, params);
  const std::vector<T> ref_out = decompress<T>(ref_blob);
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    for (const unsigned threads : kThreadCounts) {
      params.threads = threads;
      const std::vector<std::uint8_t> blob = compress<T>(data, dims, params);
      EXPECT_EQ(blob, ref_blob) << "blob differs at level " << util::simd_name(level)
                                << " threads " << threads;
    }
    const std::vector<T> out = decompress<T>(ref_blob);
    EXPECT_TRUE(bytes_equal(out, ref_out))
        << "decode differs at level " << util::simd_name(level);
  }
}

// 64x128x64 -> 16 uniform blocks of 4x128x64: a full 16-lane AVX-512
// group (or two 8-lane AVX2 groups), the best case for the lockstep path.
TEST(SimdDispatch, UniformBlocksFloat) {
  const Dims dims = Dims::make_3d(64, 128, 64);
  Params p;
  p.error_bound = 1e-3;
  expect_level_invariant<float>(make_field<float>(dims, 0.0), dims, p);
}

TEST(SimdDispatch, UniformBlocksDouble) {
  const Dims dims = Dims::make_3d(64, 128, 64);
  Params p;
  p.error_bound = 1e-4;
  expect_level_invariant<double>(make_field<double>(dims, 0.3), dims, p);
}

// 128x96x64 -> 22 slabs: 21 of 6x96x64 plus a 2x96x64 tail, so the
// partition mixes lockstep groups, scalar singles, and the ragged end.
TEST(SimdDispatch, TailBlocksFloat) {
  const Dims dims = Dims::make_3d(128, 96, 64);
  Params p;
  p.error_bound = 1e-3;
  expect_level_invariant<float>(make_field<float>(dims, 0.7), dims, p);
}

// 97x64x128 -> 20 slabs: 19 uniform 5x64x128 blocks plus a 2x64x128
// tail. One 16-lane group leaves 3 equal-shape blocks below the lane
// granularity, so they run scalar next to the tail: the code histogram
// sums a lane group's and several scalar tasks' counts.
TEST(SimdDispatch, LaneGroupPlusScalarLeftovers) {
  const Dims dims = Dims::make_3d(97, 64, 128);
  Params p;
  p.error_bound = 1e-3;
  expect_level_invariant<float>(make_field<float>(dims, 0.9), dims, p);
}

// Small fields: single-block (scalar path at every level) and 2-D/1-D
// shapes keep the sweep's boundary-peel regions honest.
TEST(SimdDispatch, SmallAndLowDims) {
  Params p;
  p.error_bound = 1e-3;
  const Dims d3 = Dims::make_3d(5, 7, 9);
  expect_level_invariant<float>(make_field<float>(d3, 0.1), d3, p);
  const Dims d2 = Dims::make_3d(1, 512, 1024);  // 16 slab blocks in 2-D
  expect_level_invariant<float>(make_field<float>(d2, 0.2), d2, p);
  const Dims d1 = Dims::make_3d(1, 1, 524288);  // 16 slab blocks in 1-D
  expect_level_invariant<float>(make_field<float>(d1, 0.4), d1, p);
}

// Residuals that land exactly on half-multiples of 2*eb force the
// round-half-away-from-zero branch of llround, where an emulation off by
// one ulp would change codes; non-finite and huge values must take the
// outlier path identically (NaN compares, overflow clamps).
TEST(SimdDispatch, TiesAndNonFiniteValues) {
  const Dims dims = Dims::make_3d(64, 128, 64);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>((static_cast<int>((i * 7) % 401) - 200)) * 0.25f;
  }
  data[13] = std::numeric_limits<float>::quiet_NaN();
  data[4097] = std::numeric_limits<float>::infinity();
  data[65539] = -3.0e38f;
  data[200003] = std::numeric_limits<float>::max();
  Params p;
  p.error_bound = 0.25;
  expect_level_invariant<float>(data, dims, p);
}

// Temporal chain: three steps compressed against the previous step's
// reconstruction (recon_out chaining), then decoded with prev. Covers the
// temporal point kernels and the mixed temporal/spatial block index, at
// every level and thread count against the scalar single-thread chain.
TEST(SimdDispatch, TemporalChain) {
  const Dims dims = Dims::make_3d(64, 128, 64);

  ActiveGuard guard;
  std::vector<std::vector<std::uint8_t>> ref_blobs;
  std::vector<std::vector<float>> ref_recons;
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    for (const unsigned threads : kThreadCounts) {
      const Params spatial{.error_bound = 1e-3, .threads = threads};
      Params p = spatial;
      p.predictor = Predictor::kTemporal;
      std::vector<std::vector<std::uint8_t>> blobs;
      std::vector<std::vector<float>> recons;
      std::vector<float> prev;
      for (int step = 0; step < 3; ++step) {
        const std::vector<float> data = make_field<float>(dims, 0.25 * step);
        std::vector<float> recon;
        blobs.push_back(step == 0 ? compress<float>(data, dims, spatial, {}, &recon)
                                  : compress<float>(data, dims, p, prev, &recon));
        const std::vector<float> decoded =
            step == 0 ? decompress<float>(blobs.back())
                      : decompress<float>(blobs.back(), std::span<const float>(prev));
        EXPECT_TRUE(bytes_equal(decoded, recon))
            << "recon_out != decode at level " << util::simd_name(level);
        recons.push_back(recon);
        prev = std::move(recon);
      }
      if (ref_blobs.empty()) {  // scalar, single thread: the first pass
        ref_blobs = std::move(blobs);
        ref_recons = std::move(recons);
        continue;
      }
      for (std::size_t s = 0; s < ref_blobs.size(); ++s) {
        EXPECT_EQ(blobs[s], ref_blobs[s]) << "temporal blob step " << s << " differs at "
                                          << util::simd_name(level) << " threads "
                                          << threads;
        EXPECT_TRUE(bytes_equal(recons[s], ref_recons[s]));
      }
    }
  }
}

// decompress_region must be level-invariant too: spatial scatter and the
// temporal row kernel, with regions crossing block boundaries and
// interior z-subranges.
TEST(SimdDispatch, RegionDecode) {
  const Dims dims = Dims::make_3d(64, 128, 64);
  Params p;
  p.error_bound = 1e-3;
  p.predictor = Predictor::kTemporal;

  ActiveGuard guard;
  util::simd_set_active(util::Simd::kScalar);
  const std::vector<float> step0 = make_field<float>(dims, 0.0);
  std::vector<float> prev;
  compress<float>(step0, dims, Params{.error_bound = 1e-3}, {}, &prev);
  const std::vector<float> step1 = make_field<float>(dims, 0.25);
  const std::vector<std::uint8_t> blob = compress<float>(step1, dims, p, prev);
  const std::vector<float> full = decompress<float>(blob, std::span<const float>(prev));

  const Region regions[] = {
      Region{{3, 10, 5}, {9, 60, 40}},     // crosses the 4-plane block seam
      Region{{0, 0, 0}, {64, 128, 64}},    // whole field
      Region{{60, 120, 60}, {64, 128, 64}},  // tail corner
      Region{{17, 0, 0}, {18, 128, 64}},   // single plane, full rows
  };
  for (const Region& region : regions) {
    // prev slice for the region, gathered from the full reference.
    std::vector<float> prev_region(region.count());
    std::size_t o = 0;
    for (std::size_t x = region.lo[0]; x < region.hi[0]; ++x) {
      for (std::size_t y = region.lo[1]; y < region.hi[1]; ++y) {
        for (std::size_t z = region.lo[2]; z < region.hi[2]; ++z, ++o) {
          prev_region[o] = prev[(x * dims.d1 + y) * dims.d2 + z];
        }
      }
    }
    util::simd_set_active(util::Simd::kScalar);
    const std::vector<float> ref = decompress_region<float>(
        blob, region, std::span<const float>(prev_region));
    // The region result must also match the full decode's slice.
    o = 0;
    for (std::size_t x = region.lo[0]; x < region.hi[0]; ++x) {
      for (std::size_t y = region.lo[1]; y < region.hi[1]; ++y) {
        for (std::size_t z = region.lo[2]; z < region.hi[2]; ++z, ++o) {
          ASSERT_EQ(ref[o], full[(x * dims.d1 + y) * dims.d2 + z]);
        }
      }
    }
    for (const util::Simd level : available_levels()) {
      util::simd_set_active(level);
      const std::vector<float> out = decompress_region<float>(
          blob, region, std::span<const float>(prev_region));
      EXPECT_TRUE(bytes_equal(out, ref))
          << "region decode differs at " << util::simd_name(level);
    }
  }

  // The block decoder's placements on a spatial blob of 18 4-plane
  // blocks: (a) the whole field, every block in place; (b) a slab that
  // starts and ends mid-block, two staged partial blocks around a full
  // 16-lane in-place group; (c) a full-axis slab with a partial inner box,
  // whose rows are not contiguous in the output, so every whole block is
  // staged. Each must be the slice of a full decompress at every level and
  // thread count, through both the vector and the out-span forms.
  const Dims sdims = Dims::make_3d(72, 128, 64);
  util::simd_set_active(util::Simd::kScalar);
  const std::vector<std::uint8_t> sblob =
      compress<float>(make_field<float>(sdims, 0.0), sdims, Params{.error_bound = 1e-3});
  ASSERT_EQ(inspect(sblob).block_count, 18u);
  const std::vector<float> sfull = decompress<float>(sblob);
  const Region placements[] = {
      Region::of(sdims),                // (a)
      Region{{2, 0, 0}, {70, 128, 64}},  // (b)
      Region{{0, 5, 3}, {72, 120, 61}},  // (c)
  };
  for (const Region& region : placements) {
    std::vector<float> want(region.count());
    for_each_region_row(region, sdims, [&](std::size_t g, std::size_t len, std::size_t o) {
      std::memcpy(want.data() + o, sfull.data() + g, len * sizeof(float));
    });
    for (const util::Simd level : available_levels()) {
      util::simd_set_active(level);
      for (const unsigned threads : {1u, 3u, 0u}) {
        EXPECT_TRUE(bytes_equal(decompress_region<float>(sblob, region, threads), want))
            << "placement differs at " << util::simd_name(level) << " threads "
            << threads;
        std::vector<float> into(region.count(), std::numeric_limits<float>::quiet_NaN());
        decompress_region_into<float>(sblob, region, std::span<float>(into), threads);
        EXPECT_TRUE(bytes_equal(into, want))
            << "out-span placement differs at " << util::simd_name(level)
            << " threads " << threads;
      }
    }
  }
}

/// Decodes `n` symbols two ways — per-symbol decode() and decode_run —
/// and returns (symbols, bits consumed, threw). The two must agree for
/// any stream, valid or not.
struct DecodeTrace {
  std::vector<std::uint32_t> syms;
  std::size_t bits = 0;
  bool threw = false;
};

DecodeTrace trace_single(const HuffmanDecoder& dec,
                         std::span<const std::uint8_t> stream, std::size_t n) {
  DecodeTrace t;
  util::BitReader in(stream);
  try {
    for (std::size_t i = 0; i < n; ++i) t.syms.push_back(dec.decode(in));
  } catch (const std::runtime_error&) {
    t.threw = true;
  }
  t.bits = in.bits_consumed();
  return t;
}

DecodeTrace trace_run(const HuffmanDecoder& dec, std::span<const std::uint8_t> stream,
                      std::size_t n) {
  DecodeTrace t;
  t.syms.resize(n, 0xdeadbeefu);
  util::BitReader in(stream);
  try {
    dec.decode_run(in, t.syms.data(), n);
  } catch (const std::runtime_error&) {
    t.threw = true;
  }
  t.bits = in.bits_consumed();
  return t;
}

// The multi-symbol decoder must behave exactly like per-symbol decode on
// whole, truncated, and bit-flipped streams — same symbols, same bit
// positions, same rejections. (On a thrown run only the throw/bits are
// comparable; symbols before the failure point are pinned by the
// whole-stream case.)
TEST(SimdDispatch, HuffmanDecodeRunMatchesSingle) {
  util::Rng rng(11);
  // A skewed alphabet around the radius, like real quantization codes.
  std::vector<SymbolCount> freqs;
  for (std::uint32_t s = 32700; s < 32840; ++s) {
    const std::uint32_t d = s > 32768 ? s - 32768 : 32768 - s;
    freqs.push_back({s, 1 + 100000ull / (1 + d * d)});
  }
  const HuffmanEncoder enc(freqs);
  std::vector<std::uint32_t> symbols(20000);
  for (auto& s : symbols) s = freqs[rng.uniform_index(freqs.size())].symbol;
  util::BitWriter writer;
  enc.encode_all(symbols, writer);
  const std::vector<std::uint8_t> stream = writer.finish();
  const std::vector<std::uint8_t> codebook = enc.serialize_codebook();

  ActiveGuard guard;
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    std::size_t consumed = 0;
    const HuffmanDecoder dec(codebook, &consumed);  // pack table per level

    const DecodeTrace whole = trace_run(dec, stream, symbols.size());
    EXPECT_FALSE(whole.threw);
    EXPECT_EQ(whole.syms, symbols) << "at level " << util::simd_name(level);

    const std::size_t cuts[] = {0, 1, 7, 8, 9, stream.size() / 2, stream.size() - 1};
    for (const std::size_t cut : cuts) {
      const std::span<const std::uint8_t> trunc(stream.data(), cut);
      const DecodeTrace a = trace_single(dec, trunc, symbols.size());
      const DecodeTrace b = trace_run(dec, trunc, symbols.size());
      EXPECT_EQ(a.threw, b.threw) << "cut " << cut << " at " << util::simd_name(level);
      EXPECT_EQ(a.bits, b.bits) << "cut " << cut << " at " << util::simd_name(level);
      if (!a.threw && !b.threw) {
        EXPECT_EQ(a.syms, b.syms) << "cut " << cut << " at " << util::simd_name(level);
      }
    }
    std::vector<std::uint8_t> corrupt(stream);
    corrupt[corrupt.size() / 3] ^= 0x5a;
    const DecodeTrace a = trace_single(dec, corrupt, symbols.size());
    const DecodeTrace b = trace_run(dec, corrupt, symbols.size());
    EXPECT_EQ(a.threw, b.threw);
    EXPECT_EQ(a.bits, b.bits);
    if (!a.threw && !b.threw) {
      EXPECT_EQ(a.syms, b.syms);
    }
  }
}

// Truncating the *container* must be rejected identically at every level
// (the end-to-end shape of the malformed-input contract: the multi-symbol
// path may never turn a corrupt blob into a quiet wrong answer).
TEST(SimdDispatch, TruncatedBlobRejectedAtEveryLevel) {
  const Dims dims = Dims::make_3d(64, 128, 64);
  Params p;
  p.error_bound = 1e-3;
  p.checksum = false;  // no CRC layer: the decode path itself must object
  const std::vector<float> data = make_field<float>(dims, 0.0);
  const std::vector<std::uint8_t> blob = compress<float>(data, dims, p);

  ActiveGuard guard;
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    for (const double frac : {0.35, 0.75, 0.98}) {
      const std::span<const std::uint8_t> trunc(
          blob.data(), static_cast<std::size_t>(static_cast<double>(blob.size()) * frac));
      EXPECT_THROW(decompress<float>(trunc), std::runtime_error)
          << "at level " << util::simd_name(level);
    }
  }
}

}  // namespace
}  // namespace pcw::sz

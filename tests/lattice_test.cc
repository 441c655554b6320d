// The lattice (dual-quantized Lorenzo) predictor, Predictor::kLattice:
// the kernel against the textbook oracle (support/lorenzo_oracle.h), the
// point-wise bound where rounding is hardest, byte identity across
// dispatch levels and thread counts, recon_out against the decoder, a
// temporal chain restarted from its keyframe, and the parser's
// predictor-byte rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "support/legacy_fixtures.h"
#include "support/lorenzo_oracle.h"
#include "support/run_tokens_oracle.h"
#include "support/simd_levels.h"
#include "sz/blocks.h"
#include "sz/compressor.h"
#include "sz/lorenzo.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

using testsupport::ActiveGuard;
using testsupport::available_levels;

constexpr unsigned kThreads[] = {1, 3};

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Smooth field with noise and a few spikes, so codes, run-length zero
/// residuals and outliers all occur.
template <typename T>
std::vector<T> field(const Dims& dims, std::uint64_t seed, double noise = 0.02) {
  util::Rng rng(seed);
  std::vector<T> out(dims.count());
  std::size_t i = 0;
  for (std::size_t x = 0; x < dims.d0; ++x) {
    for (std::size_t y = 0; y < dims.d1; ++y) {
      for (std::size_t z = 0; z < dims.d2; ++z, ++i) {
        out[i] = static_cast<T>(std::sin(0.09 * static_cast<double>(x)) *
                                    std::cos(0.05 * static_cast<double>(y)) +
                                0.7 * std::sin(0.013 * static_cast<double>(z)) +
                                noise * rng.normal() + (i % 4099 == 7 ? 40.0 : 0.0));
      }
    }
  }
  return out;
}

/// The kernel's codes, outliers and reconstruction for every block of
/// `dims` equal the oracle's at every level and thread count, and so do
/// the symbol pass's streams and summed counts, with and without run
/// tokens.
template <typename T>
void expect_matches_oracle(const std::vector<T>& data, const Dims& dims, double eb,
                           std::uint32_t radius, const std::string& what) {
  const std::vector<BlockRange> blocks = split_blocks(dims);
  std::vector<std::uint64_t> want_counts(2ull * radius, 0);
  std::vector<std::uint64_t> want_symbols(run_alphabet(radius), 0);
  std::uint64_t want_bits = 0;
  std::vector<QuantizeResult<T>> want;
  std::vector<std::vector<std::uint32_t>> want_tokens;
  for (const BlockRange& b : blocks) {
    want.push_back(testsupport::lattice_quantize<T>(
        std::span<const T>(data).subspan(b.elem_offset, b.dims.count()), b.dims, eb, radius));
    for (const std::uint32_t c : want.back().codes) {
      ++want_counts[c];
      ++want_symbols[c];
    }
    want_tokens.emplace_back(want.back().codes.begin(), want.back().codes.end());
    const testsupport::RunTokenStats stats =
        testsupport::tokenize_runs(want_tokens.back(), radius);
    stats.fold_into(std::span<std::uint64_t>(want_symbols), radius);
    want_bits += stats.length_bits();
  }
  ActiveGuard guard;
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    for (const unsigned threads : kThreads) {
      std::vector<T> recon(data.size());
      SymbolCounts counts(radius, /*runs=*/false);
      const auto got = lattice_quantize_blocks<T>(data, blocks, eb, radius, threads,
                                                  recon.data(), &counts);
      const std::string where = what + " at " + util::simd_name(level) + ", threads=" +
                                std::to_string(threads);
      ASSERT_EQ(got.size(), blocks.size()) << where;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_EQ(got[b].codes, want[b].codes) << where << " block " << b;
        EXPECT_TRUE(same_bytes(got[b].outliers, want[b].outliers)) << where << " block " << b;
        const std::vector<T> slice(recon.begin() + static_cast<std::ptrdiff_t>(blocks[b].elem_offset),
                                   recon.begin() + static_cast<std::ptrdiff_t>(
                                                       blocks[b].elem_offset + blocks[b].dims.count()));
        EXPECT_TRUE(same_bytes(slice, want[b].recon)) << where << " block " << b;
        // The inverse reproduces the reconstruction bit for bit.
        std::vector<T> back(blocks[b].dims.count());
        lattice_dequantize<T>(got[b].codes, got[b].outliers, blocks[b].dims, eb, radius, back);
        EXPECT_TRUE(same_bytes(back, want[b].recon)) << where << " block " << b;
      }
      EXPECT_EQ(counts.hist, want_counts) << where;
      EXPECT_EQ(counts.length_bits, 0u) << where;

      SymbolCounts symbols(radius, /*runs=*/true);
      const auto tokens = lattice_quantize_blocks<T>(data, blocks, eb, radius, threads,
                                                     nullptr, &symbols);
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        EXPECT_TRUE(std::ranges::equal(tokens[b].codes, want_tokens[b])) << where << " block " << b << " tokens";
      }
      EXPECT_EQ(symbols.hist, want_symbols) << where;
      EXPECT_EQ(symbols.length_bits, want_bits) << where;
    }
  }
}

TEST(Lattice, KernelMatchesOracleInEveryShape) {
  // Rows that are and are not a multiple of every vector width, 1-D,
  // 2-D and multi-block 3-D, each at the default radius and at 2 and 4.
  const Dims shapes[] = {Dims::make_3d(9, 13, 37), Dims::make_3d(40, 30, 64),
                         Dims::make_2d(70, 101), Dims::make_1d(70001),
                         Dims::make_3d(3, 1, 1), Dims::make_3d(5, 7, 1)};
  for (const Dims& d : shapes) {
    const auto f = field<float>(d, 3);
    for (const std::uint32_t radius : {32768u, 2u, 4u}) {
      expect_matches_oracle<float>(f, d, 1e-2, radius,
                                   "f32 " + std::to_string(d.d0) + "x" + std::to_string(d.d1) +
                                       "x" + std::to_string(d.d2) + " r" +
                                       std::to_string(radius));
    }
  }
  const Dims d = Dims::make_3d(24, 20, 33);
  expect_matches_oracle<double>(field<double>(d, 4, 1e-6), d, 1e-7, 32768, "f64");
}

/// Compresses at every level and thread count: the blob is the same
/// everywhere, recon_out equals the decode, and every finite value is
/// within eb (non-finite values come back bit for bit).
template <typename T>
void expect_round_trip(const std::vector<T>& data, const Dims& dims, Params p,
                       const std::string& what) {
  ActiveGuard guard;
  std::vector<std::uint8_t> ref;
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    for (const unsigned threads : kThreads) {
      p.threads = threads;
      std::vector<T> recon;
      const auto blob = compress<T>(data, dims, p, {}, &recon);
      const std::string where =
          what + " at " + util::simd_name(level) + ", threads=" + std::to_string(threads);
      if (ref.empty()) ref = blob;
      EXPECT_EQ(blob, ref) << where;
      const HeaderInfo info = inspect(blob);
      EXPECT_EQ(info.lattice_blocks, info.block_count) << where;
      const auto out = decompress<T>(blob, nullptr, threads);
      EXPECT_TRUE(same_bytes(out, recon)) << where;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (std::isfinite(data[i])) {
          ASSERT_LE(std::abs(static_cast<double>(out[i]) - static_cast<double>(data[i])),
                    p.error_bound)
              << where << " i=" << i << " x=" << data[i];
        } else {
          ASSERT_EQ(std::memcmp(&out[i], &data[i], sizeof(T)), 0) << where << " i=" << i;
        }
      }
    }
  }
}

/// Values on the lattice midpoints (k + 1/2) * 2eb, where round-half-even
/// decides, and one ulp either side of them.
template <typename T>
std::vector<T> midpoints(double eb, std::size_t n) {
  std::vector<T> out;
  for (std::size_t k = 0; out.size() < n; ++k) {
    const double m = (static_cast<double>(k % 2001) - 1000.0 + 0.5) * 2.0 * eb;
    const T t = static_cast<T>(m);
    out.push_back(t);
    out.push_back(std::nextafter(t, std::numeric_limits<T>::infinity()));
    out.push_back(std::nextafter(t, -std::numeric_limits<T>::infinity()));
  }
  out.resize(n);
  return out;
}

TEST(Lattice, BoundHoldsAtMidpointsPlusMinusOneUlp) {
  const Dims d = Dims::make_3d(6, 40, 131);
  for (const double eb : {0.25, 1e-3, 0.1}) {
    Params p;
    p.error_bound = eb;
    expect_round_trip<float>(midpoints<float>(eb, d.count()), d, p, "f32 eb " + std::to_string(eb));
    expect_round_trip<double>(midpoints<double>(eb, d.count()), d, p, "f64 eb " + std::to_string(eb));
    expect_matches_oracle<float>(midpoints<float>(eb, d.count()), d, eb, 32768, "f32 midpoints");
    expect_matches_oracle<double>(midpoints<double>(eb, d.count()), d, eb, 32768,
                                  "f64 midpoints");
  }
}

TEST(Lattice, CapNonFiniteAndDenormals) {
  // eb = 0.5 makes 2eb = 1, so x is its own lattice coordinate: 2^50 is
  // the last point inside the cap, the next double (and float) above it
  // are outside and must become outliers, decoded bit for bit.
  const double cap = 0x1p50;
  std::vector<double> d64 = {cap,
                             -cap,
                             std::nextafter(cap, 1e300),
                             -std::nextafter(cap, 1e300),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             0.0,
                             -0.0,
                             3.5,
                             2.5};
  std::vector<float> d32;
  for (const double v : d64) d32.push_back(static_cast<float>(v));
  d32[2] = std::nextafter(static_cast<float>(cap), 1e30f);
  d32[3] = -d32[2];
  d32[7] = std::numeric_limits<float>::denorm_min();
  d32[8] = -d32[7];
  d32[9] = 1e-40f;
  // Repeat so the values land in every lane of a chunk and in the tail.
  for (int rep = 0; rep < 5; ++rep) {
    const std::size_t n = d64.size();
    for (std::size_t i = 0; i < n; ++i) {
      d64.push_back(d64[i]);
      d32.push_back(d32[i]);
    }
  }
  Params p;
  p.error_bound = 0.5;
  expect_round_trip<double>(d64, Dims::make_1d(d64.size()), p, "f64 cap");
  expect_round_trip<float>(d32, Dims::make_1d(d32.size()), p, "f32 cap");
  expect_matches_oracle<double>(d64, Dims::make_1d(d64.size()), 0.5, 32768, "f64 cap");
  expect_matches_oracle<float>(d32, Dims::make_1d(d32.size()), 0.5, 32768, "f32 cap");

  // Inside the cap a point keeps its q, so an equal neighbour predicts it
  // exactly; past the cap q is 0, so the point after it (0.0) does too.
  const double above = std::nextafter(cap, 1e300);
  const std::vector<double> seq = {cap, cap, above, above, 0.0, 0.0};
  const auto q = lattice_quantize_blocks<double>(seq, split_blocks(Dims::make_1d(seq.size())),
                                                 0.5, 32768, 1);
  EXPECT_TRUE(std::ranges::equal(q[0].codes,
                                 std::vector<std::uint32_t>{0, 32768, 0, 0, 32768, 32768}));

  // Tiny bounds: a denormal bound, whose 1 / (2eb) overflows to +Inf so
  // every point is an outlier stored raw (zeros give Inf * 0 = NaN, which
  // must take the same path), and a bound near one float ulp of the data.
  std::vector<double> tiny(4096);
  for (std::size_t i = 0; i < tiny.size(); ++i) {
    tiny[i] = static_cast<double>(i % 97) * 1e-320;
  }
  p.error_bound = 1e-321;
  expect_round_trip<double>(tiny, Dims::make_1d(tiny.size()), p, "f64 denormal eb");
  const Dims d = Dims::make_3d(4, 32, 64);
  auto ones = field<float>(d, 9, 1e-6);
  for (float& v : ones) v = 1.0f + 1e-3f * v;
  for (const double eb : {0x1p-24, 0x1p-23, 0x1.8p-24}) {
    p.error_bound = eb;
    expect_round_trip<float>(ones, d, p, "f32 eb near one ulp");
    expect_matches_oracle<float>(ones, d, eb, 32768, "f32 eb near one ulp");
  }
}

TEST(Lattice, SmallRadiiRoundTrip) {
  const Dims d = Dims::make_3d(34, 20, 50);
  for (const std::uint32_t radius : {2u, 4u}) {
    Params p;
    p.error_bound = 1e-2;
    p.radius = radius;
    expect_round_trip<float>(field<float>(d, 11, 0.05), d, p, "radius " + std::to_string(radius));
    expect_round_trip<double>(field<double>(d, 12, 0.05), d, p,
                              "f64 radius " + std::to_string(radius));
  }
}

TEST(Lattice, RestartedTemporalChainStaysBitExact) {
  // A keyframe plus four temporal steps, each compressed against the
  // previous step's recon_out. Restarting — decoding from the keyframe
  // down the chain — must reproduce every recon_out bit for bit, with
  // the same blobs at every level and thread count.
  const Dims d = Dims::make_3d(64, 64, 40);  // five slab blocks
  std::vector<std::vector<float>> steps;
  for (int s = 0; s < 5; ++s) {
    auto f = field<float>(d, 21, 0.01);
    for (std::size_t i = 0; i < f.size(); ++i) {
      // The first half drifts slowly (temporal wins), the second moves.
      f[i] += static_cast<float>(i < f.size() / 2 ? 0.001 * s : 0.3 * s * std::sin(0.001 * i));
    }
    steps.push_back(std::move(f));
  }
  ActiveGuard guard;
  std::vector<std::vector<std::uint8_t>> ref;
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    for (const unsigned threads : kThreads) {
      Params p;
      p.error_bound = 1e-2;
      p.threads = threads;
      std::vector<std::vector<std::uint8_t>> blobs;
      std::vector<std::vector<float>> recons;
      std::vector<float> prev;
      for (std::size_t s = 0; s < steps.size(); ++s) {
        p.predictor = s == 0 ? Predictor::kLattice : Predictor::kTemporal;
        std::vector<float> recon;
        blobs.push_back(compress<float>(steps[s], d, p, prev, &recon));
        recons.push_back(recon);
        prev = std::move(recon);
      }
      const HeaderInfo mixed = inspect(blobs.back());
      EXPECT_GT(mixed.temporal_blocks, 0u);
      EXPECT_GT(mixed.lattice_blocks, 0u);
      if (ref.empty()) ref = blobs;
      EXPECT_EQ(blobs, ref) << util::simd_name(level) << ", threads=" << threads;
      std::vector<float> chain = decompress<float>(blobs[0], nullptr, threads);
      EXPECT_TRUE(same_bytes(chain, recons[0]));
      for (std::size_t s = 1; s < blobs.size(); ++s) {
        chain = decompress<float>(blobs[s], std::span<const float>(chain), nullptr, threads);
        EXPECT_TRUE(same_bytes(chain, recons[s]))
            << "step " << s << " at " << util::simd_name(level) << ", threads=" << threads;
      }
    }
  }
}

TEST(Lattice, DequantizeChecksTheOutlierCount) {
  const Dims d = Dims::make_1d(20);
  std::vector<std::uint32_t> codes(20, 32768);
  codes[3] = 0;
  codes[17] = 0;
  std::vector<float> out(20);
  const std::vector<float> one{1.0f}, three{1.0f, 2.0f, 3.0f};
  EXPECT_THROW(lattice_dequantize<float>(codes, one, d, 1e-3, 32768, out), std::runtime_error);
  EXPECT_THROW(lattice_dequantize<float>(codes, three, d, 1e-3, 32768, out),
               std::runtime_error);
  const std::vector<float> two{1.0f, 2.0f};
  lattice_dequantize<float>(codes, two, d, 1e-3, 32768, out);
  EXPECT_EQ(out[3], 1.0f);
  EXPECT_EQ(out[17], 2.0f);
}

TEST(Lattice, QuantizeRejectsBadArguments) {
  const std::vector<float> data(10);
  const auto blocks = split_blocks(Dims::make_1d(10));
  EXPECT_THROW(lattice_quantize_blocks<float>(data, blocks, 0.0, 32768, 1),
               std::invalid_argument);
  EXPECT_THROW(lattice_quantize_blocks<float>(data, blocks, 1e-3, 1, 1), std::invalid_argument);
  const auto too_big = split_blocks(Dims::make_1d(11));
  EXPECT_THROW(lattice_quantize_blocks<float>(data, too_big, 1e-3, 32768, 1),
               std::invalid_argument);
  // The stencil predictor is decode-only.
  Params p;
  p.predictor = Predictor::kSpatial;
  EXPECT_THROW(compress<float>(data, Dims::make_1d(10), p), std::invalid_argument);
}

/// Rewrites block 0's predictor byte of a v3/v4/v5 blob.
std::vector<std::uint8_t> with_predictor(std::vector<std::uint8_t> blob, std::uint8_t p) {
  // The fixed header is 80 bytes (v3) or 100 (v4+); the predictor byte
  // follows the entry's three u64 fields.
  const std::size_t fixed = inspect(blob).version >= 4 ? 100 : 80;
  blob[fixed + 24] = p;
  return blob;
}

bool rejects_predictor(const std::vector<std::uint8_t>& blob) {
  try {
    inspect(blob);
  } catch (const std::runtime_error& e) {
    return std::string(e.what()).find("unknown block predictor") != std::string::npos;
  }
  return false;
}

TEST(Lattice, ParserAcceptsPredictorTwoOnlyFromV5) {
  const Dims d = Dims::make_3d(8, 64, 64);
  const auto v5 = compress<float>(field<float>(d, 5), d, Params{});
  ASSERT_EQ(inspect(v5).version, 5u);
  EXPECT_EQ(inspect_blocks(v5)[0].predictor, Predictor::kLattice);
  EXPECT_FALSE(rejects_predictor(with_predictor(v5, 0)));
  EXPECT_FALSE(rejects_predictor(with_predictor(v5, 1)));
  EXPECT_TRUE(rejects_predictor(with_predictor(v5, 3)));
  EXPECT_TRUE(rejects_predictor(with_predictor(v5, 255)));

  // v3 and v4 blobs are those the older writers left (tests/fixtures/).
  for (const auto& f : {testsupport::kV3Plain, testsupport::kV4Lz}) {
    const auto blob = testsupport::load_fixture(f);
    ASSERT_EQ(inspect(blob).version, f.version);
    EXPECT_FALSE(rejects_predictor(with_predictor(blob, 1)));
    EXPECT_TRUE(rejects_predictor(with_predictor(blob, 2))) << "v" << f.version;
  }
}

}  // namespace
}  // namespace pcw::sz

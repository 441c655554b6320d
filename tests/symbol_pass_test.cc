// The symbol pass (kern::symbol_pass) against its oracle: the reference
// tokenizer (support/run_tokens_oracle.h) over the same codes, plus a
// plain count of every code folded the way the encoder folds tokens. The
// pass must give the oracle's token stream, histogram and length bits at
// every dispatch level, for both count widths, on streams built to hit
// each edge of its bit arithmetic: run lengths around kRunMin and
// kRunMax, runs that start or end on a 64-code word edge, blocks that
// are not a multiple of 64 codes, blocks of nothing but (or no) zero
// residuals, outliers (code 0), and the smallest and largest radius run
// tokens allow.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/run_tokens_oracle.h"
#include "support/simd_levels.h"
#include "sz/compressor.h"
#include "sz/huffman.h"
#include "sz/kernels.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

using testsupport::ActiveGuard;
using testsupport::available_levels;
using Codes = util::UninitVector<std::uint32_t>;

Codes as_codes(const std::vector<std::uint32_t>& v) { return {v.begin(), v.end()}; }

/// A zeroed histogram over run_alphabet(radius) symbols that commits only
/// the pages written: at kMaxRunRadius the alphabet spans 2^31 symbols.
template <typename Count>
class SparseHist {
 public:
  explicit SparseHist(std::size_t size) : bytes_(size * sizeof(Count)) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("SparseHist: mmap failed");
    data_ = static_cast<Count*>(p);
  }
  SparseHist(const SparseHist&) = delete;
  SparseHist& operator=(const SparseHist&) = delete;
  ~SparseHist() { munmap(data_, bytes_); }
  Count* data() { return data_; }
  Count operator[](std::size_t s) const { return data_[s]; }

 private:
  std::size_t bytes_;
  Count* data_;
};

/// The symbol ranges a histogram is compared over: the whole alphabet
/// when it is small, else the windows around the outlier code, the zero
/// residual and the token symbols, where every test stream's symbols lie.
std::vector<std::pair<std::size_t, std::size_t>> windows(std::uint32_t radius) {
  const std::size_t alphabet = run_alphabet(radius);
  if (alphabet <= (std::size_t{1} << 17)) return {{0, alphabet}};
  return {{0, 64}, {radius - 64, radius + 64}, {2ull * radius, alphabet}};
}

/// Runs the pass at every level and both count widths, with and without
/// run tokens, and compares it with the oracle.
void expect_matches_oracle(const std::vector<std::uint32_t>& codes, std::uint32_t radius,
                           const std::string& what) {
  std::map<std::size_t, std::uint64_t> plain;  // every code counted
  for (const std::uint32_t c : codes) ++plain[c];
  std::vector<std::uint32_t> want = codes;
  const testsupport::RunTokenStats stats = testsupport::tokenize_runs(want, radius);
  std::map<std::size_t, std::uint64_t> folded = plain;
  folded[radius] -= stats.absorbed;
  for (int k = kRunMinLog; k <= kRunMaxLog; ++k) {
    const auto t = stats.tokens[static_cast<std::size_t>(k)];
    if (t != 0) folded[2ull * radius + static_cast<std::size_t>(k)] += t;
  }

  auto check = [&](const auto& hist, const std::map<std::size_t, std::uint64_t>& expect,
                   const std::string& where) {
    for (const auto& [lo, hi] : windows(radius)) {
      for (std::size_t s = lo; s < hi; ++s) {
        const auto it = expect.find(s);
        const std::uint64_t e = it == expect.end() ? 0 : it->second;
        if (hist[s] != e) {
          ADD_FAILURE() << where << ": symbol " << s << " counted " << hist[s]
                        << ", oracle " << e;
          return;
        }
      }
    }
  };

  const Codes want_codes = as_codes(want);
  ActiveGuard guard;
  for (const util::Simd level : available_levels()) {
    util::simd_set_active(level);
    const std::string at = what + " at " + util::simd_name(level);
    {
      Codes got = as_codes(codes);
      SparseHist<std::uint64_t> hist(run_alphabet(radius));
      const std::uint64_t bits = kern::symbol_pass(got, radius, true, hist.data());
      EXPECT_EQ(got, want_codes) << at << " (u64)";
      EXPECT_EQ(bits, stats.length_bits()) << at << " (u64)";
      check(hist, folded, at + " (u64)");
    }
    {
      Codes got = as_codes(codes);
      SparseHist<std::uint32_t> hist(run_alphabet(radius));
      const std::uint64_t bits = kern::symbol_pass(got, radius, true, hist.data());
      EXPECT_EQ(got, want_codes) << at << " (u32)";
      EXPECT_EQ(bits, stats.length_bits()) << at << " (u32)";
      check(hist, folded, at + " (u32)");
    }
    {
      // Without run tokens the pass only counts.
      Codes got = as_codes(codes);
      SparseHist<std::uint64_t> hist(run_alphabet(radius));
      EXPECT_EQ(kern::symbol_pass(got, radius, false, hist.data()), 0u) << at;
      EXPECT_EQ(got, as_codes(codes)) << at << " (count only)";
      check(hist, plain, at + " (count only)");
    }
  }
}

/// A code that is not the zero residual: radius +- 1..3, or an outlier.
std::uint32_t other_code(util::Rng& rng, std::uint32_t radius) {
  const double u = rng.uniform();
  if (u < 0.1) return 0;
  const auto d = static_cast<std::uint32_t>(1 + rng.uniform_index(std::min(radius - 1, 3u)));
  return u < 0.55 ? radius - d : radius + d;
}

/// Each listed run of the zero residual, followed by one other code.
std::vector<std::uint32_t> runs_stream(std::uint32_t radius,
                                       const std::vector<std::size_t>& runs,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> codes;
  for (const std::size_t len : runs) {
    codes.insert(codes.end(), len, radius);
    codes.push_back(other_code(rng, radius));
  }
  return codes;
}

using Spans = std::vector<std::pair<std::size_t, std::size_t>>;

/// n other codes with the zero residual over each [begin, end) span.
std::vector<std::uint32_t> spans_stream(std::uint32_t radius, std::size_t n,
                                        const Spans& spans, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> codes(n);
  for (auto& c : codes) c = other_code(rng, radius);
  for (const auto& [begin, end] : spans) {
    std::fill(codes.begin() + static_cast<std::ptrdiff_t>(begin),
              codes.begin() + static_cast<std::ptrdiff_t>(end), radius);
  }
  return codes;
}

/// n codes, each the zero residual with probability p.
std::vector<std::uint32_t> random_stream(std::uint32_t radius, std::size_t n, double p,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> codes(n);
  for (auto& c : codes) c = rng.uniform() < p ? radius : other_code(rng, radius);
  return codes;
}

const std::uint32_t kRadii[] = {32768, 2, kMaxRunRadius};

TEST(SymbolPass, RunLengthsAroundTheTokenLimits) {
  const std::vector<std::size_t> lengths = {7,    8,    63,   64,   65,  4095,
                                            4096, 4097, 4103, 4104, 8199};
  for (const std::uint32_t radius : kRadii) {
    const std::string r = "r" + std::to_string(radius);
    for (const std::size_t len : lengths) {
      // The run alone, after a code, and before one.
      expect_matches_oracle(std::vector<std::uint32_t>(len, radius), radius,
                            r + " run " + std::to_string(len) + " alone");
      expect_matches_oracle(runs_stream(radius, {0, len}, len), radius,
                            r + " run " + std::to_string(len) + " inside");
    }
    expect_matches_oracle(runs_stream(radius, lengths, 1), radius, r + " all lengths");
  }
}

TEST(SymbolPass, RunsOnWordEdges) {
  // Runs that start, end, or both, on a 64-code word edge, that span one
  // or several edges, and that end the block.
  const std::vector<Spans> cases = {
      {{0, 64}},   {{64, 128}},  {{56, 64}},   {{64, 72}},   {{63, 129}},
      {{1, 9}},    {{55, 63}},   {{57, 65}},   {{120, 136}}, {{0, 8}, {9, 17}, {64, 200}},
      {{8, 64}, {65, 73}, {127, 135}, {191, 256}}, {{200, 320}}};
  for (const std::uint32_t radius : kRadii) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (const std::size_t n : {std::size_t{256}, std::size_t{320}, std::size_t{333}}) {
        auto spans = cases[c];
        for (auto& [begin, end] : spans) end = std::min(end, n);
        expect_matches_oracle(spans_stream(radius, n, spans, c), radius,
                              "r" + std::to_string(radius) + " edges case " +
                                  std::to_string(c) + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(SymbolPass, BlockLengthsAndDensities) {
  // Lengths that are not a multiple of 64 (and some that are), at
  // zero-residual densities from none to all.
  const std::size_t lengths[] = {0, 1, 7, 8, 9, 63, 64, 65, 100, 127, 128, 129, 1000, 70001};
  for (const std::uint32_t radius : kRadii) {
    for (const std::size_t n : lengths) {
      for (const double p : {0.0, 0.5, 0.8, 0.95, 0.999, 1.0}) {
        expect_matches_oracle(random_stream(radius, n, p, n * 7 + 3), radius,
                              "r" + std::to_string(radius) + " n=" + std::to_string(n) +
                                  " p=" + std::to_string(p));
      }
    }
  }
}

TEST(SymbolPass, RunFreeWordsCountedWhole) {
  // A full word with no run code and at most 8 zero residuals is counted
  // by a plain loop over its 64 codes, one with 9 by the bit scan. Such
  // words sit here between run words (a run ending on the word edge
  // before one, or reaching into it, and one starting on the edge after)
  // and in the tail word, which is always bit-scanned.
  const std::size_t n = 4 * 64 + 37;
  for (const std::uint32_t radius : kRadii) {
    for (const std::size_t zeros : {0u, 8u, 9u}) {
      for (const std::size_t run_end : {64u, 67u}) {
        std::vector<std::uint32_t> codes =
            spans_stream(radius, n, {{40, run_end}, {128, 150}}, zeros + run_end);
        // Isolated zero residuals, 7 codes apart: never a run.
        for (const std::size_t word : {1u, 3u, 4u}) {
          const std::size_t count = word == 4 ? std::min<std::size_t>(zeros, 5) : zeros;
          for (std::size_t j = 0; j < count; ++j) codes[word * 64 + 7 * j] = radius;
        }
        expect_matches_oracle(codes, radius,
                              "r" + std::to_string(radius) + " zeros " +
                                  std::to_string(zeros) + " run to " + std::to_string(run_end));
      }
    }
  }
}

TEST(SymbolPass, RandomRunLengths) {
  util::Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::size_t> runs(150);
    for (auto& len : runs) {
      len = trial % 2 == 0 ? rng.uniform_index(20) : rng.uniform_index(9000);
    }
    expect_matches_oracle(runs_stream(32768, runs, 100 + static_cast<std::uint64_t>(trial)),
                          32768, "trial " + std::to_string(trial));
  }
}

TEST(SymbolPass, RejectsRunTokensPastTheirRadius) {
  Codes codes(16, 1);
  std::vector<std::uint64_t> hist(4);
  EXPECT_THROW(kern::symbol_pass(codes, kMaxRunRadius + 1, true, hist.data()),
               std::invalid_argument);
}

/// A smooth field with noisy patches, so its blocks hold long runs,
/// short runs and outliers.
std::vector<float> patchy_field(const Dims& dims, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(dims.count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double x = static_cast<double>(i);
    const bool noisy = (i / 3000) % 3 == 1;
    out[i] = static_cast<float>(std::sin(0.001 * x) + (noisy ? 0.05 * rng.normal() : 0.0) +
                                (i % 5003 == 11 ? 50.0 : 0.0));
  }
  return out;
}

TEST(SymbolPass, CompressIsIdenticalAcrossThreadsAndLevels) {
  // Spatial with and without run tokens, and temporal, whose per-block
  // predictor choice costs both candidates through the pass.
  const Dims dims = Dims::make_3d(12, 40, 70);
  const std::vector<float> data = patchy_field(dims, 3);
  std::vector<float> prev(data);
  for (std::size_t i = 0; i < prev.size(); i += 2) prev[i] += 0.003f;
  struct Case {
    const char* name;
    bool lossless;
    bool temporal;
  };
  for (const Case c : {Case{"spatial", true, false}, Case{"lossless=false", false, false},
                       Case{"temporal", true, true}}) {
    Params p;
    p.error_bound = 1e-3;
    p.lossless = c.lossless;
    if (c.temporal) p.predictor = Predictor::kTemporal;
    const std::span<const float> ref = c.temporal ? std::span<const float>(prev)
                                                  : std::span<const float>{};
    ActiveGuard guard;
    std::vector<std::uint8_t> first;
    for (const util::Simd level : available_levels()) {
      util::simd_set_active(level);
      for (const unsigned threads : {1u, 3u}) {
        p.threads = threads;
        const auto blob = compress<float>(data, dims, p, ref);
        if (first.empty()) first = blob;
        EXPECT_EQ(blob, first) << c.name << " at " << util::simd_name(level)
                               << ", threads=" << threads;
      }
    }
    std::vector<float> back = decompress<float>(first, ref);
    ASSERT_EQ(back.size(), data.size()) << c.name;
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_LE(std::abs(static_cast<double>(back[i]) - data[i]), p.error_bound)
          << c.name << " at " << i;
    }
  }
}

}  // namespace
}  // namespace pcw::sz

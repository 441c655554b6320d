#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "sz/huffman.h"
#include "util/bitstream.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

// Encodes `stream` with a codebook built from its own frequencies, then
// decodes via serialized-codebook reconstruction.
std::vector<std::uint32_t> round_trip(const std::vector<std::uint32_t>& stream) {
  std::vector<std::uint64_t> counts;
  for (const auto s : stream) {
    if (s >= counts.size()) counts.resize(s + 1, 0);
    ++counts[s];
  }
  std::vector<SymbolCount> freqs;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) freqs.push_back({s, counts[s]});
  }
  HuffmanEncoder enc(freqs);
  util::BitWriter w;
  for (const auto s : stream) enc.encode(s, w);
  const auto bits = w.finish();
  const auto book = enc.serialize_codebook();

  std::size_t consumed = 0;
  HuffmanDecoder dec(book, &consumed);
  EXPECT_EQ(consumed, book.size());
  util::BitReader r(bits);
  std::vector<std::uint32_t> out;
  out.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) out.push_back(dec.decode(r));
  return out;
}

TEST(Huffman, RoundTripTwoSymbols) {
  const std::vector<std::uint32_t> stream{0, 1, 0, 0, 1, 1, 1, 0};
  EXPECT_EQ(round_trip(stream), stream);
}

TEST(Huffman, RoundTripSingleSymbolStream) {
  const std::vector<std::uint32_t> stream(100, 42);
  EXPECT_EQ(round_trip(stream), stream);
}

TEST(Huffman, RoundTripSparseHighSymbols) {
  // Quantization codes cluster near the radius; exercise sparse symbols.
  std::vector<std::uint32_t> stream;
  for (int i = 0; i < 500; ++i) stream.push_back(32768 + (i % 7) - 3);
  stream.push_back(0);  // outlier marker far from the cluster
  stream.push_back(65535);
  EXPECT_EQ(round_trip(stream), stream);
}

TEST(Huffman, SkewedDistributionCompressesNearEntropy) {
  // 90/10 split: entropy ~0.47 bits/symbol; Huffman gives 1 bit/symbol.
  util::Rng rng(3);
  std::vector<std::uint32_t> stream;
  for (int i = 0; i < 20000; ++i) stream.push_back(rng.uniform() < 0.9 ? 5 : 9);
  std::vector<SymbolCount> freqs{{5, 18000}, {9, 2000}};
  HuffmanEncoder enc(freqs);
  util::BitWriter w;
  for (const auto s : stream) enc.encode(s, w);
  EXPECT_LE(w.bit_count(), stream.size() + 8);  // ~1 bit/symbol
  EXPECT_EQ(round_trip(stream), stream);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<SymbolCount> freqs{{1, 1000}, {2, 100}, {3, 10}, {4, 1}};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[2]);
  EXPECT_LE(lengths[2], lengths[3]);
}

TEST(Huffman, KraftInequalityHolds) {
  util::Rng rng(17);
  std::vector<SymbolCount> freqs;
  for (std::uint32_t s = 0; s < 200; ++s) {
    freqs.push_back({s, rng.uniform_index(1000) + 1});
  }
  const auto lengths = huffman_code_lengths(freqs);
  double kraft = 0.0;
  for (const auto len : lengths) {
    ASSERT_GT(len, 0);
    kraft += std::pow(2.0, -static_cast<double>(len));
  }
  // A full binary code tree satisfies Kraft with equality.
  EXPECT_NEAR(kraft, 1.0, 1e-9);
}

TEST(Huffman, CostBitsMatchesActualEncoding) {
  std::vector<SymbolCount> freqs{{10, 500}, {11, 300}, {12, 150}, {13, 50}};
  HuffmanEncoder enc(freqs);
  util::BitWriter w;
  for (const auto& f : freqs) {
    for (std::uint64_t i = 0; i < f.count; ++i) enc.encode(f.symbol, w);
  }
  EXPECT_EQ(enc.cost_bits(freqs), w.bit_count());
}

TEST(Huffman, EmptyFrequencyTableYieldsEmptyBook) {
  std::vector<SymbolCount> freqs;
  HuffmanEncoder enc(freqs);
  EXPECT_EQ(enc.distinct_symbols(), 0u);
}

TEST(Huffman, ZeroCountEntriesIgnored) {
  std::vector<SymbolCount> freqs{{1, 100}, {2, 0}, {3, 100}};
  HuffmanEncoder enc(freqs);
  EXPECT_EQ(enc.distinct_symbols(), 2u);
}

TEST(Huffman, PathologicalFibonacciCountsStayBounded) {
  // Fibonacci-like frequencies build maximally deep trees; the flattening
  // fallback must keep codes <= 56 bits.
  std::vector<SymbolCount> freqs;
  std::uint64_t a = 1, b = 1;
  for (std::uint32_t s = 0; s < 80; ++s) {
    freqs.push_back({s, a});
    const std::uint64_t next = a + b;
    a = b;
    b = next;
    if (b > (1ull << 62)) break;
  }
  const auto lengths = huffman_code_lengths(freqs);
  for (const auto len : lengths) EXPECT_LE(len, 56);
}

TEST(Huffman, DecoderRejectsTruncatedCodebook) {
  std::vector<SymbolCount> freqs{{1, 10}, {2, 20}};
  HuffmanEncoder enc(freqs);
  auto book = enc.serialize_codebook();
  book.resize(book.size() - 1);
  std::size_t consumed = 0;
  EXPECT_THROW(HuffmanDecoder(book, &consumed), std::runtime_error);
}

TEST(Huffman, DecoderRejectsInvalidBitstream) {
  // Codebook covering only part of the bit space: an all-ones stream that
  // never matches a codeword must throw, not loop.
  std::vector<SymbolCount> freqs{{1, 3}, {2, 2}, {3, 1}};
  HuffmanEncoder enc(freqs);
  const auto book = enc.serialize_codebook();
  std::size_t consumed = 0;
  HuffmanDecoder dec(book, &consumed);
  // Find a prefix that is not a valid codeword by brute force; with 3
  // symbols of lengths (1,2,2) every 2-bit pattern is valid, so extend the
  // alphabet instead.
  std::vector<SymbolCount> freqs2{{1, 8}, {2, 4}, {3, 2}, {4, 1}, {5, 1}};
  HuffmanEncoder enc2(freqs2);
  std::size_t consumed2 = 0;
  HuffmanDecoder dec2(enc2.serialize_codebook(), &consumed2);
  // lengths are (1,2,3,4,4): pattern 1111...: follow 0/1 assignment; at
  // least decoding a random long stream must either produce symbols or
  // throw — never hang. We assert termination by bounded decode count.
  std::vector<std::uint8_t> junk(64, 0xff);
  util::BitReader r(junk);
  int produced = 0;
  try {
    for (int i = 0; i < 1000; ++i) {
      dec2.decode(r);
      ++produced;
    }
  } catch (const std::runtime_error&) {
    SUCCEED();
    return;
  }
  EXPECT_LE(produced, 1000);
}

TEST(Huffman, RoundTripDeepCodes) {
  // Fibonacci-ish counts force code lengths well past the level-1 table
  // (11 bits) and past the level-2 reach (26 bits), exercising the
  // subtable and canonical fallback paths of the table-driven decoder.
  // The codebook is built from these skewed counts directly (the encoded
  // stream itself is near-uniform so every depth gets hit).
  std::vector<SymbolCount> freqs;
  std::uint64_t a = 1, b = 1;
  for (std::uint32_t s = 0; s < 30; ++s) {
    freqs.push_back({s, a});
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const HuffmanEncoder enc(freqs);
  ASSERT_GT(enc.max_code_length(), 26) << "fixture no longer reaches the slow path";

  std::vector<std::uint32_t> stream;
  for (std::uint32_t s = 0; s < freqs.size(); ++s) {
    for (int k = 0; k < 3; ++k) stream.push_back(s);
    stream.push_back(static_cast<std::uint32_t>(freqs.size()) - 1 - s);
  }
  util::BitWriter w;
  for (const auto s : stream) enc.encode(s, w);
  const auto bits = w.finish();

  std::size_t consumed = 0;
  const HuffmanDecoder dec(enc.serialize_codebook(), &consumed);
  util::BitReader r(bits);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < stream.size(); ++i) out.push_back(dec.decode(r));
  EXPECT_EQ(out, stream);
}

class HuffmanRandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanRandomRoundTrip, RoundTripsRandomAlphabet) {
  const int alphabet = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(alphabet) * 977);
  std::vector<std::uint32_t> stream;
  // Zipf-ish skew: symbol ~ floor(alphabet * u^3).
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    stream.push_back(static_cast<std::uint32_t>(u * u * u * alphabet));
  }
  EXPECT_EQ(round_trip(stream), stream);
}

INSTANTIATE_TEST_SUITE_P(AlphabetSizes, HuffmanRandomRoundTrip,
                         ::testing::Values(2, 3, 16, 100, 1000, 65536));

// ---- run tokens (container v5) ---------------------------------------------

/// Plain code stream with zero-residual runs of the given lengths between
/// single non-zero codes (radius +- 1..3).
std::vector<std::uint32_t> runs_stream(std::uint32_t radius,
                                       const std::vector<std::size_t>& runs,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> codes;
  for (const std::size_t len : runs) {
    codes.insert(codes.end(), len, radius);
    const auto d = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
    codes.push_back(rng.uniform() < 0.5 ? radius - d : radius + d);
  }
  return codes;
}

/// The tokenizer spelled out as one plain scan: every maximal run of the
/// zero-residual code, split greedily into kRunMax pieces while at least
/// kRunMin codes remain.
std::vector<std::uint32_t> reference_tokens(const std::vector<std::uint32_t>& codes,
                                            std::uint32_t radius, RunTokenStats& stats) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < codes.size();) {
    std::size_t j = i;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    std::size_t len = j - i;
    if (codes[i] == radius) {
      for (; len >= kRunMin; len -= std::min<std::size_t>(len, kRunMax)) {
        const std::size_t piece = std::min<std::size_t>(len, kRunMax);
        std::size_t k = 0;
        while ((std::size_t{2} << k) <= piece) ++k;
        out.push_back(2 * radius + static_cast<std::uint32_t>(k));
        out.push_back(static_cast<std::uint32_t>(piece));
        ++stats.tokens[k];
        stats.absorbed += piece;
      }
    }
    out.insert(out.end(), len, codes[i]);
    i = j;
  }
  return out;
}

/// Tokenizes, builds the shared codebook over the tokenized histogram and
/// encodes — what compress() does per block.
struct TokenStream {
  std::vector<std::uint8_t> codebook;
  std::vector<std::uint8_t> bits;
};

TokenStream encode_tokens(std::vector<std::uint32_t> codes, std::uint32_t radius,
                          int lead_bits = 0) {
  std::vector<std::uint64_t> hist(run_alphabet(radius), 0);
  for (const auto c : codes) ++hist[c];
  const RunTokenStats stats = tokenize_runs(codes, radius);
  stats.fold_into(std::span<std::uint64_t>(hist), radius);
  std::vector<SymbolCount> freqs;
  for (std::uint32_t s = 0; s < hist.size(); ++s) {
    if (hist[s] > 0) freqs.push_back({s, hist[s]});
  }
  const HuffmanEncoder enc(freqs);
  util::BitWriter w;
  if (lead_bits > 0) w.put(0, lead_bits);
  enc.encode_all(codes, w, 2ull * radius);
  return {enc.serialize_codebook(), w.finish()};
}

TEST(RunTokens, TokenizeMatchesReferenceScan) {
  const std::uint32_t radius = 32768;
  const std::vector<std::vector<std::size_t>> cases = {
      {},
      {0, 0, 0},
      {7, 8, 9, 15, 16, 17},
      {4095, 4096, 4097, 8192, 8199, 4096 + 7, 4096 + 8},
      {100000},
      {3, 1, 0, 2, 12, 5, 31, 33, 64, 1000, 2047, 2048}};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    auto codes = runs_stream(radius, cases[c], c);
    codes.insert(codes.end(), 9, radius);  // a run at the very end, too
    RunTokenStats want;
    const auto expect = reference_tokens(codes, radius, want);
    const RunTokenStats got = tokenize_runs(codes, radius);
    EXPECT_EQ(codes, expect) << "case " << c;
    EXPECT_EQ(got.absorbed, want.absorbed) << "case " << c;
    EXPECT_EQ(got.tokens, want.tokens) << "case " << c;
  }
  // Random run lengths, dense and sparse.
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> runs(200);
    for (auto& len : runs) {
      len = trial % 2 == 0 ? rng.uniform_index(12) : rng.uniform_index(9000);
    }
    auto codes = runs_stream(radius, runs, 100 + static_cast<std::uint64_t>(trial));
    RunTokenStats want;
    const auto expect = reference_tokens(codes, radius, want);
    const RunTokenStats got = tokenize_runs(codes, radius);
    EXPECT_EQ(codes, expect) << "trial " << trial;
    EXPECT_EQ(got.absorbed, want.absorbed) << "trial " << trial;
  }
}

TEST(RunTokens, RoundTripExpandsRunsAtEveryRadius) {
  // Radius 32768 puts the tokens above the u16 pack slots; radius 100
  // puts them inside, where the pack table must still stop at a token.
  for (const std::uint32_t radius : {32768u, 100u, 4u}) {
    const auto codes = runs_stream(radius, {0, 8, 3, 4096, 4097, 20000, 7, 12, 1, 300}, radius);
    const TokenStream ts = encode_tokens(codes, radius);
    std::size_t consumed = 0;
    const HuffmanDecoder dec(ts.codebook, &consumed, radius);
    util::BitReader r(ts.bits);
    std::vector<std::uint32_t> out(codes.size());
    dec.decode_run(r, out.data(), out.size());
    EXPECT_EQ(out, codes) << "radius " << radius;
    EXPECT_EQ((r.bits_consumed() + 7) / 8, ts.bits.size()) << "radius " << radius;
  }
}

TEST(RunTokens, UnalignedWriterTakesThePerSymbolPathToTheSameBits) {
  // A writer that is not byte-aligned skips the bulk packer; both paths
  // must emit the same codewords and length bits.
  const std::uint32_t radius = 32768;
  const auto codes = runs_stream(radius, {9, 0, 5000, 2, 40}, 3);
  std::size_t used[2] = {};
  for (const int lead : {0, 3}) {
    const TokenStream ts = encode_tokens(codes, radius, lead);
    std::size_t consumed = 0;
    const HuffmanDecoder dec(ts.codebook, &consumed, radius);
    util::BitReader r(ts.bits);
    r.get(lead);
    std::vector<std::uint32_t> out(codes.size());
    dec.decode_run(r, out.data(), out.size());
    EXPECT_EQ(out, codes) << "lead " << lead;
    used[lead == 0 ? 0 : 1] = r.bits_consumed() - static_cast<std::size_t>(lead);
  }
  EXPECT_EQ(used[0], used[1]);
}

TEST(RunTokens, DecoderRejectsInvalidTokenSymbols) {
  const std::uint32_t radius = 1000;
  for (const std::uint32_t bad : {2 * radius, 2 * radius + 2, 2 * radius + 13}) {
    const std::vector<SymbolCount> freqs{{radius, 10}, {bad, 3}};
    const HuffmanEncoder enc(freqs);
    std::size_t consumed = 0;
    EXPECT_THROW(HuffmanDecoder(enc.serialize_codebook(), &consumed, radius),
                 std::runtime_error)
        << "symbol 2R+" << bad - 2 * radius;
    // A legacy stream (no run radius) takes the same book as plain codes.
    EXPECT_NO_THROW(HuffmanDecoder(enc.serialize_codebook(), &consumed));
  }
}

TEST(RunTokens, TokenOverrunningTheBlockThrows) {
  const std::uint32_t radius = 32768;
  const auto codes = runs_stream(radius, {5000}, 1);  // one 4096 token + 904
  const TokenStream ts = encode_tokens(codes, radius);
  std::size_t consumed = 0;
  const HuffmanDecoder dec(ts.codebook, &consumed, radius);
  util::BitReader r(ts.bits);
  std::vector<std::uint32_t> out(4000);
  EXPECT_THROW(dec.decode_run(r, out.data(), out.size()), std::runtime_error);
}

}  // namespace
}  // namespace pcw::sz

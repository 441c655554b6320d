#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/lz_compress.h"
#include "sz/lossless.h"
#include "util/rng.h"

namespace pcw::sz {
namespace {

using testsupport::lz_compress;

std::vector<std::uint8_t> round_trip(const std::vector<std::uint8_t>& input) {
  const auto packed = lz_compress(input);
  return lz_decompress(packed, input.size());
}

TEST(Lossless, EmptyInput) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(round_trip(empty), empty);
}

TEST(Lossless, SingleByte) {
  const std::vector<std::uint8_t> one{42};
  EXPECT_EQ(round_trip(one), one);
}

TEST(Lossless, ShortInputBelowMinMatch) {
  const std::vector<std::uint8_t> in{1, 2, 3};
  EXPECT_EQ(round_trip(in), in);
}

TEST(Lossless, AllZerosCollapses) {
  const std::vector<std::uint8_t> zeros(100000, 0);
  const auto packed = lz_compress(zeros);
  EXPECT_LT(packed.size(), zeros.size() / 50);  // long-run RLE regime
  EXPECT_EQ(lz_decompress(packed, zeros.size()), zeros);
}

TEST(Lossless, PeriodicPatternCollapses) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 50000; ++i) input.push_back(static_cast<std::uint8_t>(i % 13));
  const auto packed = lz_compress(input);
  EXPECT_LT(packed.size(), input.size() / 20);
  EXPECT_EQ(lz_decompress(packed, input.size()), input);
}

TEST(Lossless, RandomDataDoesNotExplode) {
  util::Rng rng(1);
  std::vector<std::uint8_t> input(100000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto packed = lz_compress(input);
  // Worst case: token overhead only.
  EXPECT_LT(packed.size(), input.size() + input.size() / 100 + 64);
  EXPECT_EQ(lz_decompress(packed, input.size()), input);
}

TEST(Lossless, OverlappingMatchReplication) {
  // "abcabcabc...": matches overlap their own output (offset < length).
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 10000; ++i) input.push_back("abc"[i % 3]);
  EXPECT_EQ(round_trip(input), input);
}

TEST(Lossless, LongLiteralRunsUseExtendedLengths) {
  // > 15 literals forces the extended-length encoding path.
  util::Rng rng(2);
  std::vector<std::uint8_t> input(1000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_EQ(round_trip(input), input);
}

TEST(Lossless, LongMatchesUseExtendedLengths) {
  std::vector<std::uint8_t> input(5000, 7);  // one giant match
  EXPECT_EQ(round_trip(input), input);
}

TEST(Lossless, MatchesBeyondWindowAreNotUsed) {
  // A repeat separated by > 64 KiB cannot be referenced; output must still
  // round-trip (as literals or nearer matches).
  std::vector<std::uint8_t> input;
  util::Rng rng(3);
  std::vector<std::uint8_t> chunk(256);
  for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_u64());
  input.insert(input.end(), chunk.begin(), chunk.end());
  std::vector<std::uint8_t> noise(70000);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
  input.insert(input.end(), noise.begin(), noise.end());
  input.insert(input.end(), chunk.begin(), chunk.end());
  EXPECT_EQ(round_trip(input), input);
}

TEST(Lossless, DecompressRejectsWrongExpectedSize) {
  const std::vector<std::uint8_t> input{1, 2, 3, 4, 5, 6, 7, 8};
  const auto packed = lz_compress(input);
  EXPECT_THROW(lz_decompress(packed, input.size() + 1), std::runtime_error);
}

TEST(Lossless, DecompressRejectsTruncatedStream) {
  std::vector<std::uint8_t> input(1000, 9);
  auto packed = lz_compress(input);
  packed.resize(packed.size() / 2);
  EXPECT_THROW(lz_decompress(packed, input.size()), std::runtime_error);
}

TEST(Lossless, DecompressRejectsBadOffset) {
  // Hand-craft a sequence with an offset pointing before the start: token
  // 0x01 = 0 literals, match len 4+1, offset 7 with nothing decoded yet.
  const std::vector<std::uint8_t> bad{0x01, 0x07, 0x00};
  EXPECT_THROW(lz_decompress(bad, 100), std::runtime_error);
}

class LosslessSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LosslessSizeSweep, RoundTripsHuffmanLikePayload) {
  // Payload shaped like our real input: Huffman-coded quantization codes
  // (biased bytes with recurring short patterns) plus a raw float tail.
  const std::size_t n = GetParam();
  util::Rng rng(n * 31 + 7);
  std::vector<std::uint8_t> input(n);
  std::uint8_t prev = 0;
  for (auto& b : input) {
    b = rng.uniform() < 0.7 ? prev : static_cast<std::uint8_t>(rng.uniform_index(16));
    prev = b;
  }
  EXPECT_EQ(round_trip(input), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LosslessSizeSweep,
                         ::testing::Values(0, 1, 4, 5, 255, 256, 4096, 65535, 65536,
                                           1 << 20));

}  // namespace
}  // namespace pcw::sz

// Reference LZ encoder for the legacy (v1–v4) container payloads: the
// greedy hash-chain LZ77 pass the writers ran over the assembled payload
// before container v5 replaced it with in-block run tokens. The library
// keeps only the decoder (sz/lossless.h); tests use this oracle to build
// lz_decompress inputs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pcw::testsupport {

/// Greedy hash-chain LZ compressor in the sz/lossless.h token format.
/// Never fails; worst case the output is input size + small per-block
/// overhead.
std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> input);

}  // namespace pcw::testsupport

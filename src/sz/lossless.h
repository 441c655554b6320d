// Byte-oriented LZ77 decoder (LZ4-like token format) for legacy blobs.
//
// Containers v1–v4 could store their whole payload LZ-compressed (SZ's
// zstd pass after Huffman coding, in our from-scratch stand-in). v5
// writers code the same sub-1-bit structure as Huffman run tokens inside
// each block instead, so the library keeps only the decoder; the
// reference encoder lives with the tests (tests/support/lz_compress.h).
//
// Format (repeats until input consumed):
//   token byte: high nibble = literal run length (15 => extended bytes),
//               low nibble  = match length - kMinMatch (15 => extended)
//   [extended literal length: 255-terminated byte sequence]
//   literal bytes
//   match offset: u16 little-endian (1..65535), absent in the final
//                 literal-only sequence
//   [extended match length bytes]
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pcw::sz {

/// Decodes an LZ stream. `expected_size` is the decoded size recorded by
/// the caller (the compressor container stores it); used to preallocate
/// and to validate.
std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> input,
                                        std::size_t expected_size);

}  // namespace pcw::sz

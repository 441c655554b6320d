// Reference v1 (single-stream) container writer mirroring the seed
// compressor byte-for-byte. Shared by the v1-compat and region-read
// suites so v1 behaviour stays pinned independently of the current
// (v2, block-indexed) writer.
#pragma once

#include <cstdint>
#include <vector>

#include "sz/huffman.h"
#include "lorenzo_oracle.h"
#include "util/bitstream.h"
#include "util/pod_io.h"

namespace pcw::testsupport {

inline std::vector<std::uint8_t> build_v1_blob(const std::vector<float>& data,
                                               const sz::Dims& dims, double eb,
                                               std::uint32_t radius) {
  const auto quant = lorenzo_quantize<float>(data, dims, eb, radius);
  std::vector<std::uint64_t> counts(2ull * radius, 0);
  for (const auto c : quant.codes) ++counts[c];
  std::vector<sz::SymbolCount> freqs;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) freqs.push_back({s, counts[s]});
  }
  const sz::HuffmanEncoder enc(freqs);
  util::BitWriter writer;
  for (const auto c : quant.codes) enc.encode(c, writer);
  const auto huff = writer.finish();
  const auto codebook = enc.serialize_codebook();

  std::vector<std::uint8_t> blob;
  util::append_pod(blob, std::uint32_t{0x5A574350});  // magic
  util::append_pod(blob, std::uint8_t{1});            // version
  util::append_pod(blob, std::uint8_t{0});            // dtype f32
  util::append_pod(blob, std::uint8_t{0});            // flags (no LZ)
  util::append_pod(blob, std::uint8_t{0});            // reserved
  util::append_pod(blob, static_cast<std::uint64_t>(dims.d0));
  util::append_pod(blob, static_cast<std::uint64_t>(dims.d1));
  util::append_pod(blob, static_cast<std::uint64_t>(dims.d2));
  util::append_pod(blob, eb);
  util::append_pod(blob, radius);
  util::append_pod(blob, static_cast<std::uint64_t>(quant.outliers.size()));
  util::append_pod(blob, static_cast<std::uint64_t>(codebook.size()));
  util::append_pod(blob, static_cast<std::uint64_t>(huff.size()));
  util::append_pod(blob, static_cast<std::uint64_t>(codebook.size() + huff.size() +
                                                    quant.outliers.size() * 4));
  blob.insert(blob.end(), codebook.begin(), codebook.end());
  blob.insert(blob.end(), huff.begin(), huff.end());
  const auto* p = reinterpret_cast<const std::uint8_t*>(quant.outliers.data());
  blob.insert(blob.end(), p, p + quant.outliers.size() * 4);
  return blob;
}

}  // namespace pcw::testsupport

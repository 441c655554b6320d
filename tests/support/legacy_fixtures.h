// The checked-in legacy LZ blobs (tests/fixtures/legacy_lz/), written by
// the last writer that ran the whole-payload LZ stage. Readers keep
// decoding them; each one's decoded output is pinned by the FNV-1a 64
// hash its generator (make_legacy_lz.cc) printed.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "sz/dims.h"

namespace pcw::testsupport {

struct LegacyFixture {
  const char* file;
  sz::Dims dims;
  std::uint32_t version;
  std::uint64_t decoded_fnv1a;
};

/// v4 + LZ, four slab blocks of a smooth 128x32x32 field at eb 0.05.
inline constexpr LegacyFixture kV4Lz{"v4_lz.pcwz", {128, 32, 32}, 4, 0xec3c4852b5934cb6ull};
/// v2 + LZ (no checksums), one 2x32x64 block at eb 0.05.
inline constexpr LegacyFixture kV2Lz{"v2_lz.pcwz", {2, 32, 64}, 2, 0xe34176f1840d1424ull};
/// v3 + LZ: the next step of kV2Lz, one temporal block, to be decoded
/// against kV2Lz's decoded output.
inline constexpr LegacyFixture kV3Lz{"v3_lz.pcwz", {2, 32, 64}, 3, 0x6e7c7653abfd8cc4ull};

inline std::vector<std::uint8_t> load_fixture(const LegacyFixture& f) {
  const std::string path = std::string(PCW_FIXTURE_DIR) + "/legacy_lz/" + f.file;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open fixture " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// FNV-1a 64 over a decoded field's bytes.
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(v.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

}  // namespace pcw::testsupport

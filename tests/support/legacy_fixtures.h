// The checked-in legacy blobs, written by writers that are gone: the LZ
// ones (tests/fixtures/legacy_lz/) by the last writer that ran the
// whole-payload LZ stage, the plain v2/v3 ones (tests/fixtures/
// legacy_plain/) by the last writer that emitted those layouts. Readers
// keep decoding them; each one's decoded output is pinned by the FNV-1a
// 64 hash its generator (make_legacy_lz.cc, make_legacy_plain.cc)
// printed.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden.h"
#include "sz/dims.h"

namespace pcw::testsupport {

struct LegacyFixture {
  const char* file;  // relative to tests/fixtures/
  sz::Dims dims;
  std::uint32_t version;
  std::uint64_t decoded_fnv1a;
};

/// v4 + LZ, four slab blocks of a smooth 128x32x32 field at eb 0.05.
inline constexpr LegacyFixture kV4Lz{"legacy_lz/v4_lz.pcwz", {128, 32, 32}, 4,
                                     0xec3c4852b5934cb6ull};
/// v2 + LZ (no checksums), one 2x32x64 block at eb 0.05.
inline constexpr LegacyFixture kV2Lz{"legacy_lz/v2_lz.pcwz", {2, 32, 64}, 2,
                                     0xe34176f1840d1424ull};
/// v3 + LZ: the next step of kV2Lz, one temporal block, to be decoded
/// against kV2Lz's decoded output.
inline constexpr LegacyFixture kV3Lz{"legacy_lz/v3_lz.pcwz", {2, 32, 64}, 3,
                                     0x6e7c7653abfd8cc4ull};

/// Plain v2 (no LZ, no checksums): four 8x64x64 slabs at eb 0.05 and
/// radius 256, 960 outliers. Also the keyframe kV3Plain decodes against.
inline constexpr LegacyFixture kV2Plain{"legacy_plain/v2_plain.pcwz", {32, 64, 64}, 2,
                                        0x88c3b5dbdb51404full};
/// Plain v3: the next step of kV2Plain, slabs 0-1 temporal and 2-3
/// spatial, to be decoded against kV2Plain's decoded output.
inline constexpr LegacyFixture kV3Plain{"legacy_plain/v3_plain.pcwz", {32, 64, 64}, 3,
                                        0x15f031ebf2152119ull};

inline std::vector<std::uint8_t> load_fixture(const LegacyFixture& f) {
  const std::string path = std::string(PCW_FIXTURE_DIR) + "/" + f.file;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open fixture " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace pcw::testsupport

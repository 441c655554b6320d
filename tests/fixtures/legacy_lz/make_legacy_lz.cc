// Generator for the legacy LZ fixture blobs in this directory.
//
// Container v5 writers no longer run the whole-payload LZ stage, so these
// blobs were written once by the last writer that did (git commit
// f699d25, container v4) and are checked in. Readers keep decoding v1–v4
// LZ blobs; tests load these files and pin each one's decoded output by
// the FNV-1a 64 hash this program prints.
//
// Rebuild against that commit's library (not part of the CMake build):
//   git archive f699d25 | tar -x -C OLD && cmake -B OLD/build -S OLD &&
//   cmake --build OLD/build --target pcw
//   g++ -std=c++20 -O2 -I OLD/src make_legacy_lz.cc OLD/build/src/libpcw.a \
//       -lpthread -o make_legacy_lz && ./make_legacy_lz .
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sz/compressor.h"

using namespace pcw;

static std::uint64_t fnv1a(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

/// Smooth field drifting with t, plus (when `rough`) a persistent
/// period-5 pattern the spatial stencil pays for and a temporal delta
/// cancels, so the v3 step keeps its temporal block.
static std::vector<float> field(const sz::Dims& d, double t, bool rough) {
  std::vector<float> out(d.count());
  std::size_t i = 0;
  for (std::size_t x = 0; x < d.d0; ++x) {
    for (std::size_t y = 0; y < d.d1; ++y) {
      for (std::size_t z = 0; z < d.d2; ++z, ++i) {
        out[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(x) + t) *
                                        std::cos(0.07 * static_cast<double>(y)) +
                                    0.5 * std::sin(0.03 * static_cast<double>(z)) +
                                    (rough ? 0.06 * static_cast<double>((y * 7 + z * 3) % 5)
                                           : 0.0));
      }
    }
  }
  return out;
}

static void save(const std::string& dir, const char* name,
                 const std::vector<std::uint8_t>& blob, const std::vector<float>& out) {
  std::ofstream(dir + "/" + name, std::ios::binary)
      .write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  const sz::HeaderInfo info = sz::inspect(blob);
  std::printf("%-14s v%u lz=%d blocks=%u temporal=%u bytes=%zu decoded_fnv1a=%016llx\n",
              name, info.version, info.lz_applied ? 1 : 0, info.block_count,
              info.temporal_blocks, blob.size(),
              static_cast<unsigned long long>(fnv1a(out.data(), out.size() * 4)));
}

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  sz::Params p;
  p.error_bound = 0.05;

  // v4 + LZ, four slab blocks: partial decode and the bit-flip sweep.
  const sz::Dims cube = sz::Dims::make_3d(128, 32, 32);
  const auto v4 = sz::compress<float>(field(cube, 0.0, false), cube, p);
  save(dir, "v4_lz.pcwz", v4, sz::decompress<float>(v4));

  // Legacy v2 + LZ (no checksums), one block: the truncation sweep.
  const sz::Dims slab = sz::Dims::make_3d(2, 32, 64);
  sz::Params legacy = p;
  legacy.checksum = false;
  const auto v2 = sz::compress<float>(field(slab, 0.0, true), slab, legacy);
  const auto v2_out = sz::decompress<float>(v2);
  save(dir, "v2_lz.pcwz", v2, v2_out);

  // Legacy v3 + LZ: the next step against v2_lz.pcwz's decoded output.
  sz::Params temporal = legacy;
  temporal.predictor = sz::Predictor::kTemporal;
  const auto v3 = sz::compress<float>(field(slab, 0.01, true), slab, temporal, v2_out);
  save(dir, "v3_lz.pcwz", v3, sz::decompress<float>(v3, std::span<const float>(v2_out)));
  return 0;
}

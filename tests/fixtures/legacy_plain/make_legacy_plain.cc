// Generator for the legacy plain (no LZ, no checksums) fixture blobs in
// this directory.
//
// Writers now emit only container v5, so these blobs were written once by
// the last writer that could still emit the v2 (spatial) and v3
// (temporal) layouts — git commit b37dd6e, with Params::checksum = false —
// and are checked in. Readers keep decoding them; tests load these files
// and pin each one's decoded output by the FNV-1a 64 hash this program
// prints.
//
//   v2_plain.pcwz  multi-block spatial v2: four 8x64x64 slabs, with
//                  outliers. Also the keyframe v3_plain.pcwz decodes
//                  against.
//   v3_plain.pcwz  the next step, v3 with mixed per-block predictors:
//                  the first two slabs temporal, the last two spatial.
//
// Rebuild against that commit's library (not part of the CMake build):
//   git archive b37dd6e | tar -x -C OLD && cmake -B OLD/build -S OLD &&
//   cmake --build OLD/build --target pcw
//   g++ -std=c++20 -O2 -I OLD/src make_legacy_plain.cc OLD/build/src/libpcw.a \
//       -lpthread -o make_legacy_plain && ./make_legacy_plain .
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
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

/// Smooth field drifting with t, a persistent period-5 pattern the
/// spatial stencil pays for and a temporal delta cancels (when `rough`),
/// and sparse spikes every `spike_period` points that no predictor
/// reaches at radius 256, so both blobs carry outliers.
static void fill(std::vector<float>& out, const sz::Dims& d, std::size_t x_begin,
                 std::size_t x_end, double t, bool rough, std::size_t spike_period) {
  for (std::size_t x = x_begin; x < x_end; ++x) {
    for (std::size_t y = 0; y < d.d1; ++y) {
      for (std::size_t z = 0; z < d.d2; ++z) {
        const std::size_t i = (x * d.d1 + y) * d.d2 + z;
        out[i] = static_cast<float>(
            std::sin(0.05 * static_cast<double>(x) + t) *
                std::cos(0.07 * static_cast<double>(y)) +
            0.5 * std::sin(0.03 * static_cast<double>(z) + t) +
            (rough ? 0.06 * static_cast<double>((y * 7 + z * 3) % 5) : 0.0) +
            (i % spike_period == 0 ? 100.0 : 0.0));
      }
    }
  }
}

static void save(const std::string& dir, const char* name,
                 const std::vector<std::uint8_t>& blob, const std::vector<float>& out) {
  std::ofstream(dir + "/" + name, std::ios::binary)
      .write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  const sz::HeaderInfo info = sz::inspect(blob);
  std::printf("%-14s v%u blocks=%u temporal=%u outliers=%llu bytes=%zu "
              "decoded_fnv1a=%016llx\n",
              name, info.version, info.block_count, info.temporal_blocks,
              static_cast<unsigned long long>(info.outlier_count), blob.size(),
              static_cast<unsigned long long>(fnv1a(out.data(), out.size() * 4)));
}

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  const sz::Dims dims = sz::Dims::make_3d(32, 64, 64);
  sz::Params p;
  p.error_bound = 0.05;
  p.radius = 256;
  p.checksum = false;

  std::vector<float> key(dims.count());
  fill(key, dims, 0, dims.d0, 0.0, true, 1009);
  const auto v2 = sz::compress<float>(key, dims, p);
  const auto v2_out = sz::decompress<float>(v2);
  save(dir, "v2_plain.pcwz", v2, v2_out);

  // Next step: the first half keeps its pattern (temporal wins), the
  // second half becomes a smooth unrelated field (spatial wins).
  std::vector<float> step(dims.count());
  fill(step, dims, 0, dims.d0 / 2, 0.01, true, 1013);
  fill(step, dims, dims.d0 / 2, dims.d0, 2.0, false, 1013);
  p.predictor = sz::Predictor::kTemporal;
  const auto v3 = sz::compress<float>(step, dims, p, v2_out);
  save(dir, "v3_plain.pcwz", v3, sz::decompress<float>(v3, std::span<const float>(v2_out)));
  return 0;
}

// Generator for the container v5 fixture blobs in this directory, whose
// spatial blocks use the classic Lorenzo stencil (predictor byte 0).
//
// Writers now code every spatial block with the dual-quantized lattice
// predictor (predictor byte 2), so these blobs were written once by the
// last writer that emitted stencil blocks — git commit 5a6d6b7 — and are
// checked in. Readers keep decoding them; tests load these files and pin
// each one's decoded output by the FNV-1a 64 hash this program prints.
//
//   f32_3d.pcwz    seventeen 8x64x64 f32 slabs at eb 0.05 and radius
//                  256 — a 16-lane group of the stencil decoder's lane
//                  kernels plus a single: a smooth field coded mostly
//                  as run tokens, with spikes that become outliers. Also
//                  the keyframe temporal.pcwz decodes against.
//   f64_3d.pcwz    two 8x64x64 f64 slabs at eb 1e-3.
//   f32_1d.pcwz    100000 f32 values (three 1-D blocks) at eb 0.01 and
//                  radius 1024, with spikes that become outliers.
//   temporal.pcwz  the next step of f32_3d.pcwz with mixed per-block
//                  predictors: the first half of the slabs temporal, the
//                  rest stencil.
//
// Rebuild against that commit's library (not part of the CMake build):
//   git archive 5a6d6b7 | tar -x -C OLD && cmake -B OLD/build -S OLD &&
//   cmake --build OLD/build --target pcw
//   g++ -std=c++20 -O2 -I OLD/src make_legacy_v5_lorenzo.cc OLD/build/src/libpcw.a \
//       -lpthread -o make_legacy_v5_lorenzo && ./make_legacy_v5_lorenzo .
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

/// Smooth field drifting with t, plus (when `rough`) a persistent
/// period-5 pattern that a temporal delta cancels, plus spikes every
/// `spike_period` points that no predictor reaches at radius 256.
template <typename T>
static void fill(std::vector<T>& out, const sz::Dims& d, std::size_t x_begin,
                 std::size_t x_end, double t, bool rough, std::size_t spike_period) {
  for (std::size_t x = x_begin; x < x_end; ++x) {
    for (std::size_t y = 0; y < d.d1; ++y) {
      for (std::size_t z = 0; z < d.d2; ++z) {
        const std::size_t i = (x * d.d1 + y) * d.d2 + z;
        out[i] = static_cast<T>(
            std::sin(0.05 * static_cast<double>(x) + t) *
                std::cos(0.07 * static_cast<double>(y)) +
            0.5 * std::sin(0.03 * static_cast<double>(z) + t) +
            (rough ? 0.06 * static_cast<double>((y * 7 + z * 3) % 5) : 0.0) +
            (i % spike_period == 0 ? 100.0 : 0.0));
      }
    }
  }
}

template <typename T>
static void save(const std::string& dir, const char* name,
                 const std::vector<std::uint8_t>& blob, const std::vector<T>& out) {
  std::ofstream(dir + "/" + name, std::ios::binary)
      .write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  const sz::HeaderInfo info = sz::inspect(blob);
  std::printf("%-14s v%u blocks=%u temporal=%u run_tokens=%d outliers=%llu bytes=%zu "
              "decoded_fnv1a=%016llx\n",
              name, info.version, info.block_count, info.temporal_blocks,
              info.run_tokens ? 1 : 0,
              static_cast<unsigned long long>(info.outlier_count), blob.size(),
              static_cast<unsigned long long>(fnv1a(out.data(), out.size() * sizeof(T))));
}

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";

  const sz::Dims d3 = sz::Dims::make_3d(136, 64, 64);
  sz::Params p;
  p.error_bound = 0.05;
  p.radius = 256;
  std::vector<float> key(d3.count());
  fill(key, d3, 0, d3.d0 / 2, 0.0, true, 1009);
  fill(key, d3, d3.d0 / 2, d3.d0, 0.0, false, 1009);
  const auto f32 = sz::compress<float>(key, d3, p);
  const auto key_out = sz::decompress<float>(f32);
  save(dir, "f32_3d.pcwz", f32, key_out);

  // Next step: the first half keeps its pattern (temporal wins), the
  // second half becomes a smooth unrelated field (the stencil wins).
  std::vector<float> step(d3.count());
  fill(step, d3, 0, d3.d0 / 2, 0.02, true, 1013);
  fill(step, d3, d3.d0 / 2, d3.d0, 2.0, false, 1013);
  sz::Params pt = p;
  pt.predictor = sz::Predictor::kTemporal;
  const auto temporal = sz::compress<float>(step, d3, pt, key_out);
  save(dir, "temporal.pcwz", temporal,
       sz::decompress<float>(temporal, std::span<const float>(key_out)));

  const sz::Dims d64 = sz::Dims::make_3d(16, 64, 64);
  std::vector<double> f64_in(d64.count());
  fill(f64_in, d64, 0, d64.d0, 0.3, true, 4001);
  sz::Params p64;
  p64.error_bound = 1e-3;
  const auto f64 = sz::compress<double>(f64_in, d64, p64);
  save(dir, "f64_3d.pcwz", f64, sz::decompress<double>(f64));

  const sz::Dims d1 = sz::Dims::make_1d(100000);
  std::vector<float> line(d1.count());
  for (std::size_t i = 0; i < line.size(); ++i) {
    const double s = static_cast<double>(i);
    line[i] = static_cast<float>(std::sin(0.001 * s) + 0.2 * std::cos(0.013 * s) +
                                 (i % 997 == 0 ? 50.0 : 0.0));
  }
  sz::Params p1;
  p1.error_bound = 0.01;
  p1.radius = 1024;  // the spikes exceed it and become outliers
  const auto f1 = sz::compress<float>(line, d1, p1);
  save(dir, "f32_1d.pcwz", f1, sz::decompress<float>(f1));
  return 0;
}

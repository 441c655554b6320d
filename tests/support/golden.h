// Helpers for golden-value suites: a deterministic smooth-plus-noise
// field, identical on every platform because ValueNoise3D and Rng are
// integer-seeded and portable, and the FNV-1a 64 hash the pinned blob and
// decoded-output values are taken with.
#pragma once

#include <cstdint>
#include <vector>

#include "data/noise.h"
#include "sz/dims.h"
#include "util/rng.h"

namespace pcw::testsupport {

/// Value noise (fbm) with Gaussian jitter from the fixed seed.
template <typename T = float>
std::vector<T> golden_field(const sz::Dims& dims, std::uint64_t seed) {
  const data::ValueNoise3D noise(seed);
  util::Rng rng(seed * 2654435761u);
  std::vector<T> out(dims.count());
  std::size_t i = 0;
  for (std::size_t x = 0; x < dims.d0; ++x) {
    for (std::size_t y = 0; y < dims.d1; ++y) {
      for (std::size_t z = 0; z < dims.d2; ++z) {
        const double v = noise.fbm(0.11 * static_cast<double>(x),
                                   0.11 * static_cast<double>(y),
                                   0.11 * static_cast<double>(z), 3);
        out[i++] = static_cast<T>(40.0 * v + 0.5 * rng.normal());
      }
    }
  }
  return out;
}

/// FNV-1a 64 over a vector's bytes.
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(v.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

}  // namespace pcw::testsupport

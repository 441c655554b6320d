// Scalar reference quantizers for the two Lorenzo predictors, written
// for clarity rather than speed; the library's kernels are checked
// against them.
//
//  * lorenzo_quantize: the classic stencil (Predictor::kSpatial) that
//    earlier writers used — each point predicted from already-
//    reconstructed neighbours. The library keeps only its decoder
//    (sz::lorenzo_dequantize); this encoder builds v1 blobs
//    (build_v1_blob.h) and round trips for the stencil decoder.
//  * lattice_quantize: the dual-quantized predictor (Predictor::kLattice)
//    straight from its definition — the whole block's lattice q first
//    (rounded with std::nearbyint, not the kernels' truncate-and-step),
//    then r = q - L(q) with the zero-padded 3-D stencil written out term
//    by term.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sz/dims.h"
#include "sz/lorenzo.h"

namespace pcw::testsupport {

template <typename T>
sz::QuantizeResult<T> lorenzo_quantize(std::span<const T> data, const sz::Dims& dims,
                                       double eb, std::uint32_t radius) {
  if (data.size() != dims.count()) {
    throw std::invalid_argument("lorenzo_quantize: data size != dims.count()");
  }
  if (eb <= 0.0) throw std::invalid_argument("lorenzo_quantize: eb must be > 0");
  if (radius < 2) throw std::invalid_argument("lorenzo_quantize: radius must be >= 2");
  sz::QuantizeResult<T> result;
  result.codes.resize(data.size());
  result.recon.resize(data.size());
  T* r = result.recon.data();
  const double twice_eb = 2.0 * eb;
  const auto max_q = static_cast<long long>(radius) - 1;
  auto cell = [&](std::size_t i, double pred) {
    const double orig = static_cast<double>(data[i]);
    const double scaled = (orig - pred) / twice_eb;
    bool predictable = std::abs(scaled) <= static_cast<double>(max_q);
    long long q = 0;
    double rec = 0.0;
    if (predictable) {
      q = std::llround(scaled);
      rec = pred + static_cast<double>(q) * twice_eb;
      // The decoder reproduces T(rec): the bound must hold after the
      // narrowing too.
      predictable = std::abs(static_cast<double>(static_cast<T>(rec)) - orig) <= eb;
    }
    if (predictable) {
      result.codes[i] = static_cast<std::uint32_t>(q + static_cast<long long>(radius));
      r[i] = static_cast<T>(rec);
    } else {
      result.codes[i] = 0;
      result.outliers.push_back(data[i]);
      r[i] = data[i];
    }
  };
  // The exact sweep order and left-to-right sums of the stencil writer:
  // the x == 0 plane with its 2-D stencil, then the 3-D planes.
  const std::size_t sx = dims.d1 * dims.d2, sy = dims.d2;
  auto at = [r](std::size_t idx) { return static_cast<double>(r[idx]); };
  cell(0, 0.0);
  for (std::size_t z = 1; z < dims.d2; ++z) cell(z, at(z - 1));
  for (std::size_t y = 1; y < dims.d1; ++y) {
    const std::size_t row = y * sy;
    cell(row, at(row - sy));
    for (std::size_t z = 1; z < dims.d2; ++z) {
      const std::size_t i = row + z;
      cell(i, at(i - 1) + at(i - sy) - at(i - sy - 1));
    }
  }
  for (std::size_t x = 1; x < dims.d0; ++x) {
    const std::size_t plane = x * sx;
    cell(plane, at(plane - sx));
    for (std::size_t z = 1; z < dims.d2; ++z) {
      const std::size_t i = plane + z;
      cell(i, at(i - 1) + at(i - sx) - at(i - sx - 1));
    }
    for (std::size_t y = 1; y < dims.d1; ++y) {
      const std::size_t row = plane + y * sy;
      cell(row, at(row - sy) + at(row - sx) - at(row - sx - sy));
      for (std::size_t z = 1; z < dims.d2; ++z) {
        const std::size_t i = row + z;
        cell(i, at(i - 1) + at(i - sy) + at(i - sx) - at(i - sy - 1) - at(i - sx - 1) -
                    at(i - sx - sy) + at(i - sx - sy - 1));
      }
    }
  }
  return result;
}

template <typename T>
sz::QuantizeResult<T> lattice_quantize(std::span<const T> data, const sz::Dims& dims,
                                       double eb, std::uint32_t radius) {
  if (data.size() != dims.count()) {
    throw std::invalid_argument("lattice_quantize: data size != dims.count()");
  }
  const double twice_eb = 2.0 * eb;
  const double inv = 1.0 / twice_eb;
  std::vector<long long> q(data.size());
  std::vector<bool> fits(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double v = static_cast<double>(data[i]) * inv;
    if (std::isfinite(v) && std::abs(v) <= 0x1p50) {
      q[i] = static_cast<long long>(std::nearbyint(v));  // half-even by default
      const T rec = static_cast<T>(static_cast<double>(q[i]) * twice_eb);
      fits[i] = std::abs(static_cast<double>(rec) - static_cast<double>(data[i])) <= eb;
    }
  }
  auto at = [&](std::size_t x, std::size_t y, std::size_t z, bool in) {
    return in ? q[(x * dims.d1 + y) * dims.d2 + z] : 0;
  };
  sz::QuantizeResult<T> result;
  result.codes.resize(data.size());
  result.recon.resize(data.size());
  const auto rad = static_cast<long long>(radius);
  for (std::size_t x = 0; x < dims.d0; ++x) {
    for (std::size_t y = 0; y < dims.d1; ++y) {
      for (std::size_t z = 0; z < dims.d2; ++z) {
        const std::size_t i = (x * dims.d1 + y) * dims.d2 + z;
        const bool hx = x > 0, hy = y > 0, hz = z > 0;
        const long long pred =
            at(x, y, z - hz, hz) + at(x, y - hy, z, hy) + at(x - hx, y, z, hx) -
            at(x, y - hy, z - hz, hy && hz) - at(x - hx, y, z - hz, hx && hz) -
            at(x - hx, y - hy, z, hx && hy) + at(x - hx, y - hy, z - hz, hx && hy && hz);
        const long long r = q[i] - pred;
        if (fits[i] && r > -rad && r < rad) {
          result.codes[i] = static_cast<std::uint32_t>(r + rad);
          result.recon[i] = static_cast<T>(static_cast<double>(q[i]) * twice_eb);
        } else {
          result.codes[i] = 0;
          result.outliers.push_back(data[i]);
          result.recon[i] = data[i];
        }
      }
    }
  }
  return result;
}

}  // namespace pcw::testsupport

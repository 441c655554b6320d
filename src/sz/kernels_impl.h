// Lane-lockstep (stencil decode) and temporal point kernel bodies,
// compiled once per ISA level; the lattice kernels are in lattice_impl.h.
//
// This header is the single source of these vector kernels. Each ISA TU
// (kernels_avx2.cc, kernels_avx512.cc) defines PCW_KERNEL_NS and
// PCW_KERNEL_WIDTH before including it; every helper lands in a per-ISA
// namespace (with TU-internal linkage for the bodies), so no function
// compiled with one ISA's flags can be picked by the linker for another
// ISA's call path.
//
// The kernels use GCC/Clang vector extensions — fixed-width vector types
// with element-wise operators — rather than relying on the
// auto-vectorizer, which on these loops drowns the math in per-cell
// alias-versioning checks. A batch of `lanes` blocks is processed as
// H = lanes/NV native-register-width vectors (NV doubles: one zmm under
// AVX-512, one ymm under AVX2). Two deliberate consequences:
//   * every vector op is exactly one machine-width op — wider logical
//     vectors tempt GCC into xmm-granularity blend chains;
//   * the H halves carry independent Lorenzo recurrences (lanes are
//     separate blocks), so their serial dependency chains overlap in the
//     pipeline. The sweep is latency-bound by that chain, which is why
//     wider groups (up to 4 * NV lanes) keep paying: throughput is
//     lanes / chain-latency.
// Every vector operation is the element-wise single-rounded IEEE
// operation (converts, + - * /, compares, selects), i.e. exactly the
// scalar instruction each lane would have executed, so byte-identity with
// the scalar kernels (lorenzo_dequantize in lorenzo.cc, the temporal
// point loops in kernels.h) holds by construction.
// The two places the op sequence differs from the scalar source are
// exact-by-proof rewrites, both gated by radius <= kLaneMaxRadius = 2^30:
//   * std::llround(x) (libm; no vector form) becomes floor plus a
//     round-half-away carry, with floor(x) itself computed as
//     double(int32(x)) minus (trunc > x). For |x| < 2^31 the truncating
//     convert is the scalar cast; for |x| <= 2^30, x - floor(x) is exact
//     (both are multiples of x's ulp, which divides 1), so the carry
//     compare sees the exact fraction and the sum equals llround(x).
//   * (long long)code - (long long)radius becomes double(int32(code)) -
//     double(radius): every quantity is a 31-bit integer, exactly
//     representable in double, so the difference is exact either way.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sz/kernels.h"
#include "util/trace.h"

#if !defined(PCW_KERNEL_NS) || !defined(PCW_KERNEL_WIDTH)
#error "include kernels_impl.h from an ISA TU defining PCW_KERNEL_NS and PCW_KERNEL_WIDTH"
#endif

namespace pcw::sz::kern::PCW_KERNEL_NS {
namespace {

constexpr int WMAX = PCW_KERNEL_WIDTH;  // widest lane batch (4 halves)
constexpr int NV = WMAX / 4;            // doubles per native vector register

/// Cells per staged I/O tile in the lane sweeps: big enough to amortize
/// touching the W per-block streams (and their TLB pages), small enough
/// that a tile (kTile * W elements in and out) stays L2-resident.
constexpr std::size_t kTile = 256;

typedef double nvd __attribute__((vector_size(NV * sizeof(double))));
typedef float nvf __attribute__((vector_size(NV * sizeof(float))));
typedef std::int32_t nvi __attribute__((vector_size(NV * sizeof(std::int32_t))));
typedef std::uint32_t nvu __attribute__((vector_size(NV * sizeof(std::uint32_t))));
typedef std::int64_t nvl __attribute__((vector_size(NV * sizeof(std::int64_t))));

template <typename V>
inline V vload(const void* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}
template <typename V>
inline void vstore(void* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

/// |x| with the exact fabs semantics (sign bit cleared, NaN payload kept).
inline nvd vabs(nvd x) {
  return reinterpret_cast<nvd>(reinterpret_cast<nvl>(x) & 0x7fffffffffffffffll);
}

/// floor(x) for |x| <= 2^30 (see header comment for the exactness proof).
inline nvd vfloor30(nvd x) {
  const nvd t = __builtin_convertvector(__builtin_convertvector(x, nvi), nvd);
  return t - ((t > x) ? 1.0 : 0.0);
}

// Horizontal OR of a 32-bit mask vector: nonzero iff any lane is set.
// Used only for the rare-path branch (outliers), never for values.
typedef std::int32_t vi32x4 __attribute__((vector_size(16)));
typedef std::int32_t vi32x8 __attribute__((vector_size(32)));
inline std::int32_t hor_or(vi32x4 v) { return v[0] | v[1] | v[2] | v[3]; }
inline std::int32_t hor_or(vi32x8 v) {
  return hor_or(__builtin_shufflevector(v, v, 0, 1, 2, 3) |
                __builtin_shufflevector(v, v, 4, 5, 6, 7));
}

/// Native vector of the stored element type T.
template <typename T>
struct NatVec;
template <>
struct NatVec<float> {
  using type = nvf;
};
template <>
struct NatVec<double> {
  using type = nvd;
};
template <typename T>
using nvT = typename NatVec<T>::type;

template <typename T>
inline nvd to_double(nvT<T> v) {
  if constexpr (std::is_same_v<T, double>) {
    return v;
  } else {
    return __builtin_convertvector(v, nvd);
  }
}
template <typename T>
inline nvT<T> to_T(nvd v) {
  if constexpr (std::is_same_v<T, double>) {
    return v;
  } else {
    return __builtin_convertvector(v, nvf);
  }
}

/// Reusable per-thread scratch for the lane-major staging arrays. The
/// groups a worker processes are uniformly sized, so one geometric-growth
/// buffer per thread turns tens of MB of fresh-page faults per group call
/// into a one-time cost. Returns 64-byte-aligned carve-outs.
class Scratch {
 public:
  unsigned char* reserve(std::size_t bytes) {
    if (cap_ < bytes) {
      // Slack covers base alignment plus per-carve rounding.
      buf_ = std::make_unique_for_overwrite<unsigned char[]>(bytes + 4 * 64);
      cap_ = bytes;
    }
    used_ = 0;
    base_ = buf_.get();
    base_ += (64 - reinterpret_cast<std::uintptr_t>(base_) % 64) % 64;
    return base_;
  }
  template <typename U>
  U* carve(std::size_t count) {
    used_ = (used_ + 63) & ~std::size_t{63};
    U* p = reinterpret_cast<U*>(base_ + used_);
    used_ += count * sizeof(U);
    return p;
  }

 private:
  std::unique_ptr<unsigned char[]> buf_;
  unsigned char* base_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;
};
inline thread_local Scratch tls_scratch;

/// H native vectors holding one lattice point of H*NV lanes. The halves
/// belong to different blocks, so arithmetic on them forms H independent
/// dependency chains — the +/- operators below are the left-associative
/// prediction sums from the scalar kernels, applied per half.
template <int H>
struct VPack {
  nvd h[H];
};
template <int H>
inline VPack<H> operator+(VPack<H> x, VPack<H> y) {
  VPack<H> r;
  for (int p = 0; p < H; ++p) r.h[p] = x.h[p] + y.h[p];
  return r;
}
template <int H>
inline VPack<H> operator-(VPack<H> x, VPack<H> y) {
  VPack<H> r;
  for (int p = 0; p < H; ++p) r.h[p] = x.h[p] - y.h[p];
  return r;
}

// The lattice of reconstructed neighbours is stored in T, not double:
// every value the scalar kernels feed back into a prediction is
// double(T(v)) — exactly representable in T — so narrowing the lattice
// loses nothing and halves its memory traffic for float data. pack_load
// re-widens on load, which reproduces the scalar kernels' (double)
// conversion of their T output arrays.
template <int H, typename T>
inline VPack<H> pack_load(const T* p) {
  VPack<H> r;
  for (int q = 0; q < H; ++q) r.h[q] = to_double<T>(vload<nvT<T>>(p + q * NV));
  return r;
}

// Walks one block shape in the exact region order of the scalar kernels
// in lorenzo.cc: the x == 0 plane with its 2-D stencil, then the full 3-D
// stencil planes, each with origin / first-row / z == 0 cells peeled.
// `at(idx)` loads all lanes of lattice point idx; `cell(i, pred)` takes
// the prediction computed in the scalar kernel's left-to-right
// floating-point order (the chains below are left-associative, so each
// lane sees the identical sequence of single-rounded adds).
template <typename At, typename Cell, typename Zero>
inline void sweep(const Dims& dims, const At& at, const Cell& cell, Zero zero) {
  const std::size_t sx = dims.d1 * dims.d2;
  const std::size_t sy = dims.d2;
  cell(0, zero);
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
        cell(i, at(i - 1) + at(i - sy) + at(i - sx) - at(i - sy - 1) -
                    at(i - sx - 1) - at(i - sx - sy) + at(i - sx - sy - 1));
      }
    }
  }
}

/// One temporal quantizer step for NV lanes. Mirrors
/// temporal_quantize_points (kernels.h) statement for statement, with the
/// reference value as the prediction; lanes failing the range test are
/// clamped to zero inputs so the branch-free math stays in range for them
/// (their results are fully masked out, and NaN/inf lanes fail the
/// compare and land on the outlier path exactly like the scalar kernel).
/// Returns the code vector (0 marks outliers).
template <typename T>
inline nvu quant_half(nvd orig, nvd pred, double twice_eb, double eb,
                      double max_qd, std::int32_t radius_i, nvd* rec_out) {
  const nvd scaled = (orig - pred) / twice_eb;
  const nvl p1 = vabs(scaled) <= max_qd;
  const nvd sc = p1 ? scaled : 0.0;
  const nvd pc = p1 ? pred : 0.0;
  const nvd fl = vfloor30(sc);
  const nvd frac = sc - fl;
  const nvl carry = (frac > 0.5) | ((frac == 0.5) & (sc > 0.0));
  const nvd qd = fl + (carry ? 1.0 : 0.0);
  const nvd rec = pc + qd * twice_eb;
  const nvd drec = to_double<T>(to_T<T>(rec));
  const nvl p2 = p1 & (vabs(drec - orig) <= eb);
  const nvi p2n = __builtin_convertvector(p2, nvi);
  const nvi qi = __builtin_convertvector(qd, nvi) + radius_i;
  *rec_out = p2 ? drec : orig;
  return reinterpret_cast<nvu>(p2n ? qi : nvi{});
}

/// One dequantizer step for NV lanes: pred + (code - radius) * 2eb,
/// narrowed through T exactly like the scalar kernel's output array.
/// Outlier lanes (code 0) get a placeholder zero — the caller patches
/// them from the per-lane outlier streams — selected *before* the
/// narrowing cast so the cast stays in T's range. Returns the T lattice
/// value; the next cell re-widens it on load (double(T(v)) is exact).
template <typename T>
inline nvT<T> dequant_half(nvu code, nvd pred, double twice_eb, double dradius) {
  const nvd q = __builtin_convertvector(reinterpret_cast<nvi>(code), nvd) - dradius;
  const nvd val = pred + q * twice_eb;
  const nvl nonzero = __builtin_convertvector(reinterpret_cast<nvi>(code), nvl) != 0ll;
  const nvd vs = nonzero ? val : nvd{};
  return to_T<T>(vs);
}

template <typename T, int H>
void dequantize_lanes_impl(const DequantizeBatch<T>& b) {
  constexpr int W = H * NV;
  const std::size_t bc = b.bc;
  const double twice_eb = 2.0 * b.eb;
  const double dradius = static_cast<double>(b.radius);

  tls_scratch.reserve(bc * W * sizeof(T) + kTile * W * (sizeof(T) + sizeof(std::uint32_t)));
  T* const tlm = tls_scratch.carve<T>(bc * W);
  T* const tout = tls_scratch.carve<T>(kTile * W);
  std::uint32_t* const tci = tls_scratch.carve<std::uint32_t>(kTile * W);

  // Only the reconstructed neighbours are staged lane-major for the whole
  // block (the stencil re-reads them seven times per cell, so its window
  // must stay cache-resident). Codes are burst-copied in from the W
  // per-block streams a tile at a time, and reconstructed values written
  // to the lane-major window and to the output tile, which
  // is burst-flushed to each block's slice of `out`. Outliers are
  // bounds-checked at the consumption point and totals re-checked after
  // the sweep, so a mismatched run raises the scalar kernel's exact
  // underrun/overrun errors.
  std::size_t tbase = 0;
  auto stage_codes = [&](std::size_t i0) {
    const std::size_t n = std::min(kTile, bc - i0);
    for (int l = 0; l < W; ++l) {
      const std::uint32_t* src = b.codes[l] + i0;
      for (std::size_t j = 0; j < n; ++j) tci[j * W + l] = src[j];
    }
  };
  auto flush_out = [&](std::size_t i0) {
    const std::size_t n = std::min(kTile, bc - i0);
    for (int l = 0; l < W; ++l) {
      T* dst = b.out + static_cast<std::size_t>(l) * bc + i0;
      for (std::size_t j = 0; j < n; ++j) dst[j] = tout[j * W + l];
    }
  };
  stage_codes(0);

  std::size_t k[kMaxLanes] = {};
  auto at = [tlm](std::size_t idx) { return pack_load<H, T>(tlm + idx * W); };
  auto cell = [&](std::size_t i, VPack<H> pred) {
    std::size_t j = i - tbase;
    if (j == kTile) {
      flush_out(tbase);
      tbase = i;
      stage_codes(i);
      j = 0;
    }
    nvi zero = {};
    for (int p = 0; p < H; ++p) {
      const nvu code = vload<nvu>(tci + j * W + p * NV);
      const nvT<T> val = dequant_half<T>(code, pred.h[p], twice_eb, dradius);
      vstore(tlm + i * W + p * NV, val);
      vstore(tout + j * W + p * NV, val);
      zero |= (code == 0u);
    }
    if (hor_or(zero)) {
      // Outliers are stored as T; the lattice is T, so this is exactly
      // the scalar kernel's output-array write.
      for (int l = 0; l < W; ++l) {
        if (tci[j * W + l] == 0) {
          if (k[l] >= b.outliers[l].size()) {
            throw std::runtime_error("lorenzo_dequantize: outlier underrun");
          }
          const T v = b.outliers[l][k[l]++];
          tlm[i * W + l] = v;
          tout[j * W + l] = v;
        }
      }
    }
  };
  {
    util::trace::Span span("lane_sweep", "sz", "lanes", W);
    sweep(b.dims, at, cell, VPack<H>{});
    flush_out(tbase);
  }
  for (int l = 0; l < W; ++l) {
    if (k[l] != b.outliers[l].size()) {
      throw std::runtime_error("lorenzo_dequantize: outlier overrun");
    }
  }
}

template <typename T>
void temporal_quantize_impl(const T* data, const T* prev, std::size_t n, double eb,
                            std::uint32_t radius, std::uint32_t* codes,
                            std::vector<T>& outliers, T* recon) {
  constexpr int W = WMAX;  // point-wise: always run the widest chunks
  const double twice_eb = 2.0 * eb;
  const double max_qd = static_cast<double>(static_cast<long long>(radius) - 1);
  const auto radius_i = static_cast<std::int32_t>(radius);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    nvi zero = {};
    for (int p = 0; p < 4; ++p) {
      const nvd orig = to_double<T>(vload<nvT<T>>(data + i + p * NV));
      const nvd pred = to_double<T>(vload<nvT<T>>(prev + i + p * NV));
      nvd rec;
      const nvu code =
          quant_half<T>(orig, pred, twice_eb, eb, max_qd, radius_i, &rec);
      vstore(codes + i + p * NV, code);
      // The scalar kernel stores T(rec) for predictable points and
      // data[i] otherwise; rec already holds orig = double(data[i]) on
      // outlier lanes, and T(double(data[i])) == data[i] exactly.
      vstore(recon + i + p * NV, to_T<T>(rec));
      zero |= (code == 0u);
    }
    if (hor_or(zero)) {
      for (int l = 0; l < W; ++l) {
        if (codes[i + l] == 0) outliers.push_back(data[i + l]);
      }
    }
  }
  temporal_quantize_points<T>(data + i, prev + i, n - i, eb, radius, codes + i, outliers,
                              recon + i);
}

template <typename T>
bool temporal_dequant_range_impl(const std::uint32_t* codes, const T* prev, T* out,
                                 std::size_t n, std::span<const T> outliers,
                                 std::size_t& k, double eb, std::uint32_t radius) {
  constexpr int W = WMAX;
  const double twice_eb = 2.0 * eb;
  const double dradius = static_cast<double>(radius);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    nvu cs[4];
    nvi zero = {};
    for (int p = 0; p < 4; ++p) {
      cs[p] = vload<nvu>(codes + i + p * NV);
      zero |= (cs[p] == 0u);
    }
    if (hor_or(zero)) {
      // Chunks holding an outlier run scalar to keep consumption in order.
      if (!temporal_dequant_points<T>(codes + i, prev + i, out + i, W, outliers, k, eb,
                                      radius)) {
        return false;
      }
      continue;
    }
    for (int p = 0; p < 4; ++p) {
      const nvd q =
          __builtin_convertvector(reinterpret_cast<nvi>(cs[p]), nvd) - dradius;
      const nvd pred = to_double<T>(vload<nvT<T>>(prev + i + p * NV));
      vstore(out + i + p * NV, to_T<T>(pred + q * twice_eb));
    }
  }
  return temporal_dequant_points<T>(codes + i, prev + i, out + i, n - i, outliers, k, eb,
                                    radius);
}

}  // namespace

template <typename T>
void dequantize_lanes(const DequantizeBatch<T>& b) {
  switch (b.lanes == 0 || b.lanes % NV != 0 ? 0 : b.lanes / NV) {
    case 1:
      dequantize_lanes_impl<T, 1>(b);
      return;
    case 2:
      dequantize_lanes_impl<T, 2>(b);
      return;
    case 3:
      dequantize_lanes_impl<T, 3>(b);
      return;
    case 4:
      dequantize_lanes_impl<T, 4>(b);
      return;
    case 5:
      dequantize_lanes_impl<T, 5>(b);
      return;
    case 6:
      dequantize_lanes_impl<T, 6>(b);
      return;
    case 7:
      dequantize_lanes_impl<T, 7>(b);
      return;
    case 8:
      dequantize_lanes_impl<T, 8>(b);
      return;
    default:
      throw std::logic_error("kern::dequantize_lanes: unsupported lane count");
  }
}
template <typename T>
void temporal_quantize(const T* data, const T* prev, std::size_t n, double eb,
                       std::uint32_t radius, std::uint32_t* codes,
                       std::vector<T>& outliers, T* recon) {
  temporal_quantize_impl<T>(data, prev, n, eb, radius, codes, outliers, recon);
}
template <typename T>
bool temporal_dequant_range(const std::uint32_t* codes, const T* prev, T* out,
                            std::size_t n, std::span<const T> outliers, std::size_t& k,
                            double eb, std::uint32_t radius) {
  return temporal_dequant_range_impl<T>(codes, prev, out, n, outliers, k, eb, radius);
}

template void dequantize_lanes<float>(const DequantizeBatch<float>&);
template void dequantize_lanes<double>(const DequantizeBatch<double>&);
template void temporal_quantize<float>(const float*, const float*, std::size_t, double,
                                       std::uint32_t, std::uint32_t*,
                                       std::vector<float>&, float*);
template void temporal_quantize<double>(const double*, const double*, std::size_t,
                                        double, std::uint32_t, std::uint32_t*,
                                        std::vector<double>&, double*);
template bool temporal_dequant_range<float>(const std::uint32_t*, const float*, float*,
                                            std::size_t, std::span<const float>,
                                            std::size_t&, double, std::uint32_t);
template bool temporal_dequant_range<double>(const std::uint32_t*, const double*,
                                             double*, std::size_t,
                                             std::span<const double>, std::size_t&,
                                             double, std::uint32_t);

}  // namespace pcw::sz::kern::PCW_KERNEL_NS

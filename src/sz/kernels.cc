// Runtime dispatch for the sz SIMD kernels, plus the scalar reference
// paths and the code histogram. The per-ISA entry points live in
// kernels_avx2.cc / kernels_avx512.cc, and the baseline lattice kernels
// in kernels_base.cc (same signatures, per-level namespaces); this TU is
// compiled with the portable baseline flags and decides, per call, which
// one runs. PCW_HAVE_AVX2 / PCW_HAVE_AVX512 mirror which ISA TUs the
// build compiled (set from src/CMakeLists.txt), and util::simd_active()
// is clamped to the same macros, so dispatch can never reach code that
// was not built.
#include "sz/kernels.h"

#include <algorithm>
#include <stdexcept>

#include "util/cpu.h"

#ifndef PCW_HAVE_AVX2
#define PCW_HAVE_AVX2 0
#endif
#ifndef PCW_HAVE_AVX512
#define PCW_HAVE_AVX512 0
#endif

namespace pcw::sz::kern {

// Declares one level's lattice entry points.
#define PCW_DECLARE_LATTICE                                                      \
  template <typename T>                                                        \
  void lattice_quantize(const T*, const LatticeBlock&, std::uint32_t*,         \
                        std::vector<T>&, T*, CodeHistogram*);                   \
  template <typename T>                                                        \
  void lattice_dequantize(const std::uint32_t*, std::span<const T>,            \
                          const LatticeBlock&, T*);

namespace base {
PCW_DECLARE_LATTICE
}  // namespace base

#if PCW_HAVE_AVX2
namespace avx2 {
PCW_DECLARE_LATTICE
template <typename T>
void dequantize_lanes(const DequantizeBatch<T>&);
template <typename T>
void temporal_quantize(const T*, const T*, std::size_t, double, std::uint32_t,
                       std::uint32_t*, std::vector<T>&, T*);
template <typename T>
bool temporal_dequant_range(const std::uint32_t*, const T*, T*, std::size_t,
                            std::span<const T>, std::size_t&, double, std::uint32_t);
}  // namespace avx2
#endif

#if PCW_HAVE_AVX512
namespace avx512 {
PCW_DECLARE_LATTICE
template <typename T>
void dequantize_lanes(const DequantizeBatch<T>&);
template <typename T>
void temporal_quantize(const T*, const T*, std::size_t, double, std::uint32_t,
                       std::uint32_t*, std::vector<T>&, T*);
template <typename T>
bool temporal_dequant_range(const std::uint32_t*, const T*, T*, std::size_t,
                            std::span<const T>, std::size_t&, double, std::uint32_t);
}  // namespace avx512
#endif
#undef PCW_DECLARE_LATTICE

int lane_width() {
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      return 16;
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      return 16;
#endif
    default:
      return 1;
  }
}

int lane_granularity() {
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      return 8;  // doubles per zmm
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      return 4;  // doubles per ymm
#endif
    default:
      return 1;
  }
}

template <typename T>
void dequantize_lanes(const DequantizeBatch<T>& batch) {
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      avx512::dequantize_lanes<T>(batch);
      return;
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      avx2::dequantize_lanes<T>(batch);
      return;
#endif
    default:
      throw std::logic_error("kern::dequantize_lanes: no lane kernel at active level");
  }
}

CodeHistogram::CodeHistogram(std::uint64_t* counts, std::uint32_t radius)
    : counts_(counts),
      zero_(radius),
      lo_(radius > kBand / 2 ? radius - kBand / 2 : 0),
      width_(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBand, 2ull * radius - lo_))) {}

void CodeHistogram::add(const std::uint32_t* codes, std::size_t n) {
  // The zero-residual code (radius) is most of a smooth field's codes:
  // count it with a branch-free compare, and compact the rest into a
  // small buffer, so only they take the increment chains.
  std::uint32_t rest[256];
  for (std::size_t g = 0; g < n; g += std::size(rest)) {
    const std::size_t len = std::min(n - g, std::size(rest));
    std::size_t m = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t c = codes[g + i];
      rest[m] = c;
      m += c != zero_ ? 1 : 0;
    }
    zeros_ += len - m;
    auto count = [this](std::size_t way, std::uint32_t c) {
      const std::uint32_t d = c - lo_;
      if (d < width_) {
        ++ways_[way][d];
      } else {
        ++counts_[c];
      }
    };
    std::size_t i = 0;
    for (; i + kWays <= m; i += kWays) {
      for (std::size_t w = 0; w < kWays; ++w) count(w, rest[i + w]);
    }
    for (; i < m; ++i) count(0, rest[i]);
  }
  // A sub-histogram entry counts at most the codes added since the last
  // flush; flushing before that reaches 2^32 keeps the u32 entries exact.
  pending_ += n;
  if (pending_ >= (std::uint64_t{1} << 31)) flush();
}

void CodeHistogram::flush() {
  counts_[zero_] += zeros_;
  zeros_ = 0;
  for (std::size_t w = 0; w < kWays; ++w) {
    for (std::uint32_t d = 0; d < width_; ++d) {
      counts_[lo_ + d] += ways_[w][d];
      ways_[w][d] = 0;
    }
  }
  pending_ = 0;
}

template <typename T>
void lattice_quantize(const T* data, const LatticeBlock& blk, std::uint32_t* codes,
                      std::vector<T>& outliers, T* recon, CodeHistogram* hist) {
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      avx512::lattice_quantize<T>(data, blk, codes, outliers, recon, hist);
      return;
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      avx2::lattice_quantize<T>(data, blk, codes, outliers, recon, hist);
      return;
#endif
    default:
      base::lattice_quantize<T>(data, blk, codes, outliers, recon, hist);
  }
}

template <typename T>
void lattice_dequantize(const std::uint32_t* codes, std::span<const T> outliers,
                        const LatticeBlock& blk, T* out) {
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      avx512::lattice_dequantize<T>(codes, outliers, blk, out);
      return;
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      avx2::lattice_dequantize<T>(codes, outliers, blk, out);
      return;
#endif
    default:
      base::lattice_dequantize<T>(codes, outliers, blk, out);
  }
}

template <typename T>
void temporal_quantize(const T* data, const T* prev, std::size_t n, double eb,
                       std::uint32_t radius, std::uint32_t* codes, std::vector<T>& outliers,
                       T* recon) {
  if (radius <= kLaneMaxRadius) {
    switch (util::simd_active()) {
#if PCW_HAVE_AVX512
      case util::Simd::kAvx512:
        avx512::temporal_quantize<T>(data, prev, n, eb, radius, codes, outliers, recon);
        return;
#endif
#if PCW_HAVE_AVX2
      case util::Simd::kAvx2:
        avx2::temporal_quantize<T>(data, prev, n, eb, radius, codes, outliers, recon);
        return;
#endif
      default:
        break;
    }
  }
  temporal_quantize_points<T>(data, prev, n, eb, radius, codes, outliers, recon);
}

template <typename T>
bool temporal_dequant_range(const std::uint32_t* codes, const T* prev, T* out,
                            std::size_t n, std::span<const T> outliers, std::size_t& k,
                            double eb, std::uint32_t radius) {
  if (radius <= kLaneMaxRadius) {
    switch (util::simd_active()) {
#if PCW_HAVE_AVX512
      case util::Simd::kAvx512:
        return avx512::temporal_dequant_range<T>(codes, prev, out, n, outliers, k, eb,
                                                 radius);
#endif
#if PCW_HAVE_AVX2
      case util::Simd::kAvx2:
        return avx2::temporal_dequant_range<T>(codes, prev, out, n, outliers, k, eb,
                                               radius);
#endif
      default:
        break;
    }
  }
  return temporal_dequant_points<T>(codes, prev, out, n, outliers, k, eb, radius);
}

template void lattice_quantize<float>(const float*, const LatticeBlock&, std::uint32_t*,
                                      std::vector<float>&, float*, CodeHistogram*);
template void lattice_quantize<double>(const double*, const LatticeBlock&, std::uint32_t*,
                                       std::vector<double>&, double*, CodeHistogram*);
template void lattice_dequantize<float>(const std::uint32_t*, std::span<const float>,
                                        const LatticeBlock&, float*);
template void lattice_dequantize<double>(const std::uint32_t*, std::span<const double>,
                                         const LatticeBlock&, double*);
template void dequantize_lanes<float>(const DequantizeBatch<float>&);
template void dequantize_lanes<double>(const DequantizeBatch<double>&);
template void temporal_quantize<float>(const float*, const float*, std::size_t, double,
                                       std::uint32_t, std::uint32_t*, std::vector<float>&,
                                       float*);
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

}  // namespace pcw::sz::kern

// Runtime dispatch for the sz SIMD kernels, plus the scalar reference
// paths. The per-ISA entry points live in kernels_avx2.cc /
// kernels_avx512.cc, and the baseline lattice kernels and symbol pass in
// kernels_base.cc (same signatures, per-level namespaces); this TU is
// compiled with the portable baseline flags and decides, per call, which
// one runs. PCW_HAVE_AVX2 / PCW_HAVE_AVX512 mirror which ISA TUs the
// build compiled (set from src/CMakeLists.txt), and util::simd_active()
// is clamped to the same macros, so dispatch can never reach code that
// was not built.
#include "sz/kernels.h"

#include <stdexcept>

#include "sz/huffman.h"
#include "util/cpu.h"

#ifndef PCW_HAVE_AVX2
#define PCW_HAVE_AVX2 0
#endif
#ifndef PCW_HAVE_AVX512
#define PCW_HAVE_AVX512 0
#endif

namespace pcw::sz::kern {

// Declares one level's lattice and symbol-pass entry points.
#define PCW_DECLARE_LEVEL                                                      \
  template <typename T>                                                        \
  void lattice_quantize(const T*, const LatticeBlock&, std::uint32_t*,         \
                        std::vector<T>&, T*);                                   \
  template <typename T>                                                        \
  void lattice_dequantize(const std::uint32_t*, std::span<const T>,            \
                          const LatticeBlock&, T*);                            \
  template <typename Count>                                                    \
  std::uint64_t symbol_pass(std::uint32_t*, std::size_t&, std::uint32_t, bool, \
                            Count*);                                           \
  PackTail pack_symbols(const std::uint32_t*, std::size_t,                    \
                        std::span<const std::uint64_t>, std::uint32_t,         \
                        std::uint64_t, std::uint8_t*);

namespace base {
PCW_DECLARE_LEVEL
}  // namespace base

#if PCW_HAVE_AVX2
namespace avx2 {
PCW_DECLARE_LEVEL
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
PCW_DECLARE_LEVEL
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
#undef PCW_DECLARE_LEVEL

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

template <typename T>
void lattice_quantize(const T* data, const LatticeBlock& blk, std::uint32_t* codes,
                      std::vector<T>& outliers, T* recon) {
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      avx512::lattice_quantize<T>(data, blk, codes, outliers, recon);
      return;
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      avx2::lattice_quantize<T>(data, blk, codes, outliers, recon);
      return;
#endif
    default:
      base::lattice_quantize<T>(data, blk, codes, outliers, recon);
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

template <typename Count>
std::uint64_t symbol_pass(util::UninitVector<std::uint32_t>& codes, std::uint32_t radius,
                          bool runs, Count* hist) {
  if (runs && radius > kMaxRunRadius) {
    throw std::invalid_argument("kern::symbol_pass: radius too large for run tokens");
  }
  std::size_t n = codes.size();
  std::uint64_t length_bits = 0;
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      length_bits = avx512::symbol_pass<Count>(codes.data(), n, radius, runs, hist);
      break;
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      length_bits = avx2::symbol_pass<Count>(codes.data(), n, radius, runs, hist);
      break;
#endif
    default:
      length_bits = base::symbol_pass<Count>(codes.data(), n, radius, runs, hist);
  }
  codes.resize(n);
  return length_bits;
}

PackTail pack_symbols(const std::uint32_t* symbols, std::size_t n,
                      std::span<const std::uint64_t> table, std::uint32_t offset,
                      std::uint64_t token_base, std::uint8_t* out) {
  switch (util::simd_active()) {
#if PCW_HAVE_AVX512
    case util::Simd::kAvx512:
      return avx512::pack_symbols(symbols, n, table, offset, token_base, out);
#endif
#if PCW_HAVE_AVX2
    case util::Simd::kAvx2:
      return avx2::pack_symbols(symbols, n, table, offset, token_base, out);
#endif
    default:
      return base::pack_symbols(symbols, n, table, offset, token_base, out);
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
                                      std::vector<float>&, float*);
template void lattice_quantize<double>(const double*, const LatticeBlock&, std::uint32_t*,
                                       std::vector<double>&, double*);
template void lattice_dequantize<float>(const std::uint32_t*, std::span<const float>,
                                        const LatticeBlock&, float*);
template void lattice_dequantize<double>(const std::uint32_t*, std::span<const double>,
                                         const LatticeBlock&, double*);
template std::uint64_t symbol_pass<std::uint32_t>(util::UninitVector<std::uint32_t>&,
                                                  std::uint32_t, bool, std::uint32_t*);
template std::uint64_t symbol_pass<std::uint64_t>(util::UninitVector<std::uint32_t>&,
                                                  std::uint32_t, bool, std::uint64_t*);
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

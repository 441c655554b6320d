#include "sz/temporal.h"

#include <stdexcept>

#include "sz/kernels.h"

namespace pcw::sz {

template <typename T>
QuantizeResult<T> temporal_quantize(std::span<const T> data, std::span<const T> prev,
                                    double eb, std::uint32_t radius) {
  if (prev.size() != data.size()) {
    throw std::invalid_argument("temporal_quantize: prev size != data size");
  }
  if (eb <= 0.0) throw std::invalid_argument("temporal_quantize: eb must be > 0");
  if (radius < 2) throw std::invalid_argument("temporal_quantize: radius must be >= 2");

  QuantizeResult<T> result;
  result.codes.resize(data.size());
  result.recon.resize(data.size());
  kern::temporal_quantize<T>(data.data(), prev.data(), data.size(), eb, radius,
                             result.codes.data(), result.outliers, result.recon.data());
  return result;
}

template <typename T>
void temporal_dequantize(std::span<const std::uint32_t> codes,
                         std::span<const T> outliers, std::span<const T> prev,
                         double eb, std::uint32_t radius, std::span<T> out) {
  if (prev.size() != codes.size() || out.size() != codes.size()) {
    throw std::invalid_argument("temporal_dequantize: size mismatch");
  }
  std::size_t next_outlier = 0;
  if (!kern::temporal_dequant_range<T>(codes.data(), prev.data(), out.data(),
                                       codes.size(), outliers, next_outlier, eb,
                                       radius)) {
    throw std::runtime_error("temporal_dequantize: outlier underrun");
  }
  if (next_outlier != outliers.size()) {
    throw std::runtime_error("temporal_dequantize: outlier overrun");
  }
}

template QuantizeResult<float> temporal_quantize<float>(std::span<const float>,
                                                        std::span<const float>, double,
                                                        std::uint32_t);
template QuantizeResult<double> temporal_quantize<double>(std::span<const double>,
                                                          std::span<const double>, double,
                                                          std::uint32_t);
template void temporal_dequantize<float>(std::span<const std::uint32_t>,
                                         std::span<const float>, std::span<const float>,
                                         double, std::uint32_t, std::span<float>);
template void temporal_dequantize<double>(std::span<const std::uint32_t>,
                                          std::span<const double>, std::span<const double>,
                                          double, std::uint32_t, std::span<double>);

}  // namespace pcw::sz

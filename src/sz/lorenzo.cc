#include "sz/lorenzo.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "sz/kernels.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace pcw::sz {
namespace {

/// Sizes the rolling predictor state for a block of `dims`.
kern::LatticeBlock lattice_block(const Dims& dims, double eb, std::uint32_t radius,
                                 std::vector<std::int64_t>& plane,
                                 std::vector<std::int64_t>& row) {
  plane.resize(dims.d0 > 1 ? dims.d1 * dims.d2 : 0);
  row.resize(dims.d1 > 1 ? dims.d2 : 0);
  return {dims, eb, radius, plane.empty() ? nullptr : plane.data(),
          row.empty() ? nullptr : row.data()};
}

}  // namespace

template <typename T>
std::vector<QuantizeResult<T>> lattice_quantize_blocks(
    std::span<const T> data, std::span<const BlockRange> blocks, double eb,
    std::uint32_t radius, unsigned threads, T* recon_out, SymbolCounts* symbols) {
  if (!(eb > 0.0)) throw std::invalid_argument("lattice_quantize: eb must be > 0");
  if (radius < 2) throw std::invalid_argument("lattice_quantize: radius must be >= 2");
  if (symbols != nullptr &&
      symbols->hist.size() != (symbols->runs ? run_alphabet(radius) : 2ull * radius)) {
    throw std::invalid_argument("lattice_quantize: symbol histogram size != alphabet");
  }
  for (const BlockRange& blk : blocks) {
    if (blk.elem_offset + blk.dims.count() > data.size()) {
      throw std::invalid_argument("lattice_quantize: block outside the data");
    }
  }

  // One task per worker over a contiguous run of blocks, so each worker
  // reuses one set of rolling buffers and one histogram for the whole
  // call. A single task counts into `symbols` directly; several count
  // into their own and add them in when done. The sums are exact
  // integers, so the counts do not depend on `threads`.
  const std::size_t tasks =
      std::min<std::size_t>(util::resolve_threads(threads), blocks.size());
  std::mutex symbols_mu;
  std::vector<QuantizeResult<T>> quants(blocks.size());
  util::parallel_for(tasks, threads, [&](std::size_t t) {
    const bool own = symbols != nullptr && tasks > 1;
    std::vector<std::uint64_t> own_hist(own ? symbols->hist.size() : 0, 0);
    std::uint64_t* hist = own ? own_hist.data()
                              : symbols != nullptr ? symbols->hist.data() : nullptr;
    std::uint64_t length_bits = 0;
    std::vector<std::int64_t> plane, row;
    for (std::size_t b = blocks.size() * t / tasks; b < blocks.size() * (t + 1) / tasks;
         ++b) {
      const BlockRange& blk = blocks[b];
      QuantizeResult<T>& q = quants[b];
      {
        util::trace::Span span("quantize", "sz", "block", b);
        q.codes.resize(blk.dims.count());
        kern::lattice_quantize<T>(data.data() + blk.elem_offset,
                                  lattice_block(blk.dims, eb, radius, plane, row),
                                  q.codes.data(), q.outliers,
                                  recon_out != nullptr ? recon_out + blk.elem_offset : nullptr);
      }
      if (hist != nullptr) {
        util::trace::Span span("run_tokens", "sz", "block", b);
        length_bits += kern::symbol_pass<std::uint64_t>(q.codes, radius, symbols->runs, hist);
      }
    }
    if (symbols == nullptr) return;
    const std::lock_guard lock(symbols_mu);
    for (std::size_t s = 0; s < own_hist.size(); ++s) symbols->hist[s] += own_hist[s];
    symbols->length_bits += length_bits;
  });
  return quants;
}

template <typename T>
void lattice_dequantize(std::span<const std::uint32_t> codes,
                        std::span<const T> outliers, const Dims& dims, double eb,
                        std::uint32_t radius, std::span<T> out) {
  if (codes.size() != dims.count() || out.size() != dims.count()) {
    throw std::invalid_argument("lattice_dequantize: size mismatch");
  }
  // Reused across calls: the kernel writes each buffer entry before it
  // reads it.
  static thread_local std::vector<std::int64_t> plane, row;
  kern::lattice_dequantize<T>(codes.data(), outliers,
                              lattice_block(dims, eb, radius, plane, row), out.data());
}

// The stencil decoder walks each block in the order the stencil writer
// swept it: the x == 0 plane with its 2-D stencil, then the full 3-D
// planes, each with the boundary faces (origin, first row, z == 0 cells)
// peeled so the interior carries no boundary tests. Every prediction
// reads reconstructed neighbours in the writer's left-to-right
// floating-point order, which is what reproduces its output bit for bit.
template <typename T>
void lorenzo_dequantize(std::span<const std::uint32_t> codes,
                        std::span<const T> outliers, const Dims& dims, double eb,
                        std::uint32_t radius, std::span<T> out) {
  if (codes.size() != dims.count() || out.size() != dims.count()) {
    throw std::invalid_argument("lorenzo_dequantize: size mismatch");
  }
  const double twice_eb = 2.0 * eb;
  const std::size_t sx = dims.d1 * dims.d2;
  const std::size_t sy = dims.d2;

  std::size_t next_outlier = 0;
  T* r = out.data();
  auto at = [r](std::size_t idx) { return static_cast<double>(r[idx]); };
  auto cell = [&](std::size_t i, double pred) {
    const std::uint32_t code = codes[i];
    if (code == 0) {
      if (next_outlier >= outliers.size()) {
        throw std::runtime_error("lorenzo_dequantize: outlier underrun");
      }
      r[i] = outliers[next_outlier++];
    } else {
      const auto q = static_cast<long long>(code) - static_cast<long long>(radius);
      r[i] = static_cast<T>(pred + static_cast<double>(q) * twice_eb);
    }
  };

  // x == 0 plane.
  {
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
  }
  // x >= 1 planes.
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
        const double pred = at(i - 1) + at(i - sy) + at(i - sx) -
                            at(i - sy - 1) - at(i - sx - 1) - at(i - sx - sy) +
                            at(i - sx - sy - 1);
        cell(i, pred);
      }
    }
  }
  if (next_outlier != outliers.size()) {
    throw std::runtime_error("lorenzo_dequantize: outlier overrun");
  }
}

template std::vector<QuantizeResult<float>> lattice_quantize_blocks<float>(
    std::span<const float>, std::span<const BlockRange>, double, std::uint32_t,
    unsigned, float*, SymbolCounts*);
template std::vector<QuantizeResult<double>> lattice_quantize_blocks<double>(
    std::span<const double>, std::span<const BlockRange>, double, std::uint32_t,
    unsigned, double*, SymbolCounts*);
template void lattice_dequantize<float>(std::span<const std::uint32_t>,
                                        std::span<const float>, const Dims&, double,
                                        std::uint32_t, std::span<float>);
template void lattice_dequantize<double>(std::span<const std::uint32_t>,
                                         std::span<const double>, const Dims&, double,
                                         std::uint32_t, std::span<double>);
template void lorenzo_dequantize<float>(std::span<const std::uint32_t>,
                                        std::span<const float>, const Dims&, double,
                                        std::uint32_t, std::span<float>);
template void lorenzo_dequantize<double>(std::span<const std::uint32_t>,
                                         std::span<const double>, const Dims&, double,
                                         std::uint32_t, std::span<double>);

}  // namespace pcw::sz

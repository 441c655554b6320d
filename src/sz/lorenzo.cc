#include "sz/lorenzo.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "sz/kernels.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace pcw::sz {
namespace {

// The hot loops below peel the boundary faces (x==0 plane, y==0 rows,
// z==0 cells) out of the sweep so the interior stencil carries no
// has_x/has_y/has_z tests per point — each loop body computes exactly the
// terms its region needs. The arithmetic per cell is identical to the
// generic zero-padded Lorenzo stencil, so codes match the pre-peeled
// implementation bit-for-bit.

template <typename T>
struct Quantizer {
  QuantizeResult<T>& result;
  std::span<const T> data;
  T* recon;
  double eb;
  double twice_eb;
  long long radius;
  long long max_q;

  // Quantizes point i given its prediction; returns nothing, writes
  // codes/recon/outliers.
  inline void cell(std::size_t i, double pred) {
    const double orig = static_cast<double>(data[i]);
    const double scaled = (orig - pred) / twice_eb;
    bool predictable = std::abs(scaled) <= static_cast<double>(max_q);
    long long q = 0;
    double rec = 0.0;
    if (predictable) {
      q = std::llround(scaled);
      rec = pred + static_cast<double>(q) * twice_eb;
      // Verify against the original in the *storage* precision: the
      // value the decompressor reproduces is T(rec), so the bound must
      // hold after the narrowing conversion too.
      predictable = std::abs(static_cast<double>(static_cast<T>(rec)) - orig) <= eb;
    }
    if (predictable) {
      result.codes[i] = static_cast<std::uint32_t>(q + radius);
      recon[i] = static_cast<T>(rec);
    } else {
      result.codes[i] = 0;
      result.outliers.push_back(data[i]);
      recon[i] = data[i];
    }
  }
};

}  // namespace

template <typename T>
QuantizeResult<T> lorenzo_quantize(std::span<const T> data, const Dims& dims,
                                   double eb, std::uint32_t radius) {
  if (data.size() != dims.count()) {
    throw std::invalid_argument("lorenzo_quantize: data size != dims.count()");
  }
  if (eb <= 0.0) throw std::invalid_argument("lorenzo_quantize: eb must be > 0");
  if (radius < 2) throw std::invalid_argument("lorenzo_quantize: radius must be >= 2");

  QuantizeResult<T> result;
  result.codes.resize(data.size());
  result.recon.resize(data.size());
  std::vector<T>& recon = result.recon;

  const std::size_t sx = dims.d1 * dims.d2;
  const std::size_t sy = dims.d2;
  Quantizer<T> qz{result,
                  data,
                  recon.data(),
                  eb,
                  2.0 * eb,
                  static_cast<long long>(radius),
                  static_cast<long long>(radius) - 1};
  const T* r = recon.data();
  auto at = [r](std::size_t idx) { return static_cast<double>(r[idx]); };

  // x == 0 plane: 2-D stencil in (y, z).
  {
    qz.cell(0, 0.0);                                        // origin
    for (std::size_t z = 1; z < dims.d2; ++z) {             // first row
      qz.cell(z, at(z - 1));
    }
    for (std::size_t y = 1; y < dims.d1; ++y) {
      const std::size_t row = y * sy;
      qz.cell(row, at(row - sy));                           // z == 0 cell
      for (std::size_t z = 1; z < dims.d2; ++z) {           // interior row
        const std::size_t i = row + z;
        qz.cell(i, at(i - 1) + at(i - sy) - at(i - sy - 1));
      }
    }
  }
  // x >= 1 planes: full 3-D stencil in the interior.
  for (std::size_t x = 1; x < dims.d0; ++x) {
    const std::size_t plane = x * sx;
    qz.cell(plane, at(plane - sx));                         // y == 0, z == 0
    for (std::size_t z = 1; z < dims.d2; ++z) {             // y == 0 row
      const std::size_t i = plane + z;
      qz.cell(i, at(i - 1) + at(i - sx) - at(i - sx - 1));
    }
    for (std::size_t y = 1; y < dims.d1; ++y) {
      const std::size_t row = plane + y * sy;
      qz.cell(row, at(row - sy) + at(row - sx) - at(row - sx - sy));  // z == 0
      for (std::size_t z = 1; z < dims.d2; ++z) {           // branchless interior
        const std::size_t i = row + z;
        const double pred = at(i - 1) + at(i - sy) + at(i - sx) -
                            at(i - sy - 1) - at(i - sx - 1) - at(i - sx - sy) +
                            at(i - sx - sy - 1);
        qz.cell(i, pred);
      }
    }
  }
  return result;
}

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

template <typename T>
std::vector<QuantizeResult<T>> lorenzo_quantize_blocks(
    std::span<const T> data, std::span<const BlockRange> blocks, double eb,
    std::uint32_t radius, unsigned threads, T* recon_out,
    std::span<std::uint64_t> counts) {
  if (eb <= 0.0) throw std::invalid_argument("lorenzo_quantize: eb must be > 0");
  if (radius < 2) throw std::invalid_argument("lorenzo_quantize: radius must be >= 2");
  if (!counts.empty() && counts.size() != 2ull * radius) {
    throw std::invalid_argument("lorenzo_quantize: counts size != 2 * radius");
  }

  // Partition into lockstep groups — runs of consecutive blocks with
  // identical extents and contiguous data, rounded down to the lane
  // granularity (up to lane_width() lanes per group) — and scalar
  // singles. The partition depends on the dispatch level, but both
  // kernels produce identical bytes, so blobs do not.
  struct Task {
    std::size_t first = 0;
    int count = 1;  // lanes for a lockstep group, 1 for a single
  };
  std::vector<Task> tasks;
  tasks.reserve(blocks.size());
  const int w = kern::lane_width();
  const int g = kern::lane_granularity();
  std::size_t b = 0;
  while (b < blocks.size()) {
    int run = 0;
    if (w > 1 && radius <= kern::kLaneMaxRadius) {
      const std::size_t bc = blocks[b].dims.count();
      if (bc > 0) {
        const int cap = static_cast<int>(
            std::min<std::size_t>(static_cast<std::size_t>(w), blocks.size() - b));
        run = 1;
        while (run < cap) {
          const BlockRange& cur = blocks[b + static_cast<std::size_t>(run)];
          const bool contiguous =
              cur.dims.d0 == blocks[b].dims.d0 && cur.dims.d1 == blocks[b].dims.d1 &&
              cur.dims.d2 == blocks[b].dims.d2 &&
              cur.elem_offset ==
                  blocks[b].elem_offset + static_cast<std::size_t>(run) * bc;
          if (!contiguous) break;
          ++run;
        }
        run = (run / g) * g;
        if (blocks[b].elem_offset + static_cast<std::size_t>(run) * bc > data.size()) {
          run = 0;
        }
      }
    }
    const bool group = run >= g && run > 1;
    tasks.push_back({b, group ? run : 1});
    b += group ? static_cast<std::size_t>(run) : 1;
  }

  // Each task counts codes into its own histogram, added into `counts`
  // when the task ends, so at most one histogram per worker is live. A
  // single-worker run has no concurrent tasks and counts into `counts`
  // directly.
  std::fill(counts.begin(), counts.end(), 0);
  const bool shared_counts = util::resolve_threads(threads) <= 1 || tasks.size() <= 1;
  std::mutex counts_mu;

  std::vector<QuantizeResult<T>> quants(blocks.size());
  util::parallel_for(tasks.size(), threads, [&](std::size_t t) {
    const Task& task = tasks[t];
    util::trace::Span span("quantize", "sz", "block", task.first);
    std::vector<std::uint64_t> own;
    std::uint64_t* hist = nullptr;
    if (!counts.empty()) {
      if (!shared_counts) own.assign(counts.size(), 0);
      hist = shared_counts ? counts.data() : own.data();
    }
    if (task.count == 1) {
      const BlockRange& blk = blocks[task.first];
      QuantizeResult<T>& q = quants[task.first];
      q = lorenzo_quantize<T>(data.subspan(blk.elem_offset, blk.dims.count()),
                              blk.dims, eb, radius);
      if (recon_out != nullptr) {
        std::copy(q.recon.begin(), q.recon.end(), recon_out + blk.elem_offset);
      }
      std::vector<T>().swap(q.recon);
      if (hist != nullptr) {
        for (const std::uint32_t c : q.codes) ++hist[c];
      }
    } else {
      const std::size_t bc = blocks[task.first].dims.count();
      std::uint32_t* codes[kern::kMaxLanes] = {};
      std::vector<T>* outs[kern::kMaxLanes] = {};
      for (int l = 0; l < task.count; ++l) {
        QuantizeResult<T>& q = quants[task.first + static_cast<std::size_t>(l)];
        q.codes.resize(bc);
        codes[l] = q.codes.data();
        outs[l] = &q.outliers;
      }
      kern::QuantizeBatch<T> batch;
      batch.data = data.data() + blocks[task.first].elem_offset;
      batch.bc = bc;
      batch.dims = blocks[task.first].dims;
      batch.eb = eb;
      batch.radius = radius;
      batch.codes = codes;
      batch.outliers = outs;
      batch.recon =
          recon_out != nullptr ? recon_out + blocks[task.first].elem_offset : nullptr;
      batch.hist = hist;
      batch.lanes = task.count;
      kern::quantize_lanes<T>(batch);
    }
    if (!own.empty()) {
      const std::lock_guard lock(counts_mu);
      for (std::size_t s = 0; s < own.size(); ++s) counts[s] += own[s];
    }
  });
  return quants;
}

template QuantizeResult<float> lorenzo_quantize<float>(std::span<const float>,
                                                       const Dims&, double,
                                                       std::uint32_t);
template QuantizeResult<double> lorenzo_quantize<double>(std::span<const double>,
                                                         const Dims&, double,
                                                         std::uint32_t);
template void lorenzo_dequantize<float>(std::span<const std::uint32_t>,
                                        std::span<const float>, const Dims&, double,
                                        std::uint32_t, std::span<float>);
template void lorenzo_dequantize<double>(std::span<const std::uint32_t>,
                                         std::span<const double>, const Dims&, double,
                                         std::uint32_t, std::span<double>);
template std::vector<QuantizeResult<float>> lorenzo_quantize_blocks<float>(
    std::span<const float>, std::span<const BlockRange>, double, std::uint32_t,
    unsigned, float*, std::span<std::uint64_t>);
template std::vector<QuantizeResult<double>> lorenzo_quantize_blocks<double>(
    std::span<const double>, std::span<const BlockRange>, double, std::uint32_t,
    unsigned, double*, std::span<std::uint64_t>);

}  // namespace pcw::sz

// Lattice (dual-quantized Lorenzo) kernel bodies, compiled once per
// dispatch level.
//
// Each kernel TU — kernels_base.cc (the portable baseline: the scalar
// level), kernels_avx2.cc and kernels_avx512.cc — defines PCW_KERNEL_NS
// and PCW_LATTICE_WIDTH (doubles per native vector register) before
// including this header, so every level runs this one source. Like
// kernels_impl.h it uses GCC/Clang vector extensions, one native register
// per operation.
//
// Why the predictor vectorizes: the classic stencil predicts from
// *reconstructed* neighbours, a serial chain through the block. Here
// every value is rounded onto the lattice q = round(x / 2eb) first,
// independently, and the residual r = q - L(q) is exact integer
// arithmetic on q alone. L is the Lorenzo stencil, whose residual is the
// mixed difference D_z D_y D_x q, so a row is three element-wise
// differences — against the previous plane's q (a), the previous row's a
// (b) and the previous element's b (r) — with no dependency between
// lanes. The decoder inverts the last difference with a prefix sum and
// the other two element-wise.
//
// Byte identity across levels holds by construction: each lane performs
// the same IEEE operations (the multiply by 1/(2eb), an exact
// round-half-even, compares, one multiply back, the narrowing to T) and
// the rest is integer arithmetic, which is exact. The code must stay free
// of FMA contraction (the TUs compile with -ffp-contract=off): the
// baseline's x * inv - t and every level's T(q * 2eb) - x would change
// results if fused.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sz/kernels.h"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#if !defined(PCW_KERNEL_NS) || !defined(PCW_LATTICE_WIDTH)
#error "include lattice_impl.h from a kernel TU defining PCW_KERNEL_NS and PCW_LATTICE_WIDTH"
#endif

namespace pcw::sz::kern::PCW_KERNEL_NS {
namespace {
namespace lattice {

constexpr int V = PCW_LATTICE_WIDTH;  // lanes per chunk (one native register of doubles)

typedef double vd __attribute__((vector_size(V * sizeof(double))));
typedef std::int64_t vl __attribute__((vector_size(V * sizeof(std::int64_t))));
typedef std::uint64_t vu __attribute__((vector_size(V * sizeof(std::uint64_t))));
typedef float vf __attribute__((vector_size(V * sizeof(float))));
typedef std::uint32_t vc __attribute__((vector_size(V * sizeof(std::uint32_t))));

/// Codes are scanned for outliers and counted a group at a time, while
/// the group is still in L1. A group whose codes are all the zero
/// residual — most of a smooth field — is counted with one add.
constexpr std::size_t kGroup = 64;

template <typename Vec>
inline Vec load(const void* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(Vec));
  return v;
}
template <typename Vec>
inline void store(void* p, Vec v) {
  std::memcpy(p, &v, sizeof(Vec));
}

template <typename T>
inline vd load_wide(const T* p) {
  if constexpr (std::is_same_v<T, float>) {
    return __builtin_convertvector(load<vf>(p), vd);
  } else {
    return load<vd>(p);
  }
}
/// double(T(v)): the value the decoder's narrowing store reproduces.
template <typename T>
inline vd through_T(vd v) {
  if constexpr (std::is_same_v<T, float>) {
    return __builtin_convertvector(__builtin_convertvector(v, vf), vd);
  } else {
    return v;
  }
}
template <typename T>
inline void store_narrow(T* p, vd v) {
  if constexpr (std::is_same_v<T, float>) {
    store(p, __builtin_convertvector(v, vf));
  } else {
    store(p, v);
  }
}

inline vd vabs(vd x) {
  return reinterpret_cast<vd>(reinterpret_cast<vl>(x) & 0x7fffffffffffffffll);
}

/// {prev[V-1], cur[0], ..., cur[V-2]}: each lane's left neighbour.
template <typename Vec>
inline Vec shift_in(Vec prev, Vec cur) {
#if PCW_LATTICE_WIDTH == 2
  return __builtin_shufflevector(prev, cur, 1, 2);
#elif PCW_LATTICE_WIDTH == 4
  return __builtin_shufflevector(prev, cur, 3, 4, 5, 6);
#elif PCW_LATTICE_WIDTH == 8
  return __builtin_shufflevector(prev, cur, 7, 8, 9, 10, 11, 12, 13, 14);
#else
#error "PCW_LATTICE_WIDTH must be 2, 4 or 8"
#endif
}

/// Inclusive prefix sum across the lanes (wrapping, so corrupt codes
/// cannot overflow a signed type).
inline vu prefix_sum(vu x) {
  const vu z = {};
  x += shift_in(z, x);
#if PCW_LATTICE_WIDTH == 4
  x += __builtin_shufflevector(z, x, 0, 1, 4, 5);
#elif PCW_LATTICE_WIDTH == 8
  x += __builtin_shufflevector(z, x, 0, 1, 8, 9, 10, 11, 12, 13);
  x += __builtin_shufflevector(z, x, 0, 1, 2, 3, 8, 9, 10, 11);
#endif
  return x;
}

inline vu broadcast_last(vu x) {
#if PCW_LATTICE_WIDTH == 2
  return __builtin_shufflevector(x, x, 1, 1);
#elif PCW_LATTICE_WIDTH == 4
  return __builtin_shufflevector(x, x, 3, 3, 3, 3);
#else
  return __builtin_shufflevector(x, x, 7, 7, 7, 7, 7, 7, 7, 7);
#endif
}

inline bool any_lane(vl m) {
  std::int64_t acc = 0;
  for (int l = 0; l < V; ++l) acc |= m[l];
  return acc != 0;
}

/// round-half-even(v) for |v| <= kLatticeCap, as a double. The AVX2 and
/// AVX-512 levels use the round instruction with its rounding mode in
/// the immediate, which reads no rounding mode either; every level
/// returns the exact same value, lattice_point's.
inline vd round_half_even(vd v) {
#if PCW_LATTICE_WIDTH == 8 && defined(__AVX512F__)
  // The all-lanes mask form: the plain one passes an "undefined" source
  // operand that GCC 12 warns about.
  const auto m = reinterpret_cast<__m512d>(v);
  return reinterpret_cast<vd>(_mm512_mask_roundscale_pd(
      m, 0xff, m, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
#elif PCW_LATTICE_WIDTH == 4 && defined(__AVX__)
  return reinterpret_cast<vd>(_mm256_round_pd(reinterpret_cast<__m256d>(v),
                                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
#else
  // From exact pieces, as lattice_point: truncate, take the exact
  // fraction f, and step away from zero when |f| > 1/2, or |f| = 1/2 and
  // the truncated value is odd. f is a double, so f > 1/2 is exactly
  // f >= the next double above 1/2, and one compare against a per-lane
  // threshold decides each direction.
  const vl t = __builtin_convertvector(v, vl);
  const vd f = v - __builtin_convertvector(t, vd);
  const vd half = (t & 1) != 0 ? vd{} + 0.5 : vd{} + 0x1.0000000000001p-1;
  return __builtin_convertvector(t - (f >= half) + (f <= -half), vd);  // masks are -1
#endif
}

struct Consts {
  double inv;       // 1 / (2 eb)
  double twice_eb;
  double eb;
  std::int64_t radius;
};

inline Consts consts_of(const LatticeBlock& blk) {
  const double twice_eb = 2.0 * blk.eb;
  return {1.0 / twice_eb, twice_eb, blk.eb, static_cast<std::int64_t>(blk.radius)};
}

/// The rolling predictor state as one row sees it: this row's slots in
/// the plane buffer (q of the previous plane in, this row's q out) and
/// the row buffer (a of the previous row in, this row's a out). hx / hy:
/// the previous plane / row exists (the block's faces are zero-padded);
/// sx / sy: a later plane / row will read this one.
struct Rolling {
  std::int64_t* plane;
  std::int64_t* row;
  bool hx, hy, sx, sy;
};

/// One V-lane chunk of a row at element i; `bprev` carries the previous
/// chunk's b. Returns the codes (0 for outliers).
template <typename T>
inline vl quantize_chunk(const T* x, const Rolling& s, std::size_t i, vl& bprev,
                         std::uint32_t* codes, T* recon, const Consts& k) {
  const vd xd = load_wide<T>(x + i);
  const vd v = xd * k.inv;
  const vl in = vabs(v) <= kLatticeCap;  // false for NaN and +-Inf
  // A value rounded to zero may come back as -0.0; the decoder computes
  // double(q) = +0.0, so the sign is dropped. The convert is exact:
  // |q| <= 2^50.
  const vd qr = round_half_even(in ? v : vd{});
  const vd qd = qr == 0.0 ? vd{} : qr;
  const vl q = __builtin_convertvector(qd, vl);
  const vd rec = through_T<T>(qd * k.twice_eb);
  const vl fits = in & (vabs(rec - xd) <= k.eb);

  vl a = q;
  if (s.hx) a -= load<vl>(s.plane + i);
  if (s.sx) store(s.plane + i, q);
  vl b = a;
  if (s.hy) b -= load<vl>(s.row + i);
  if (s.sy) store(s.row + i, a);
  const vl r = b - shift_in(bprev, b);
  bprev = b;

  const vl good = fits & (r > -k.radius) & (r < k.radius);
  const vl code = good ? r + k.radius : vl{};
  store(codes + i, __builtin_convertvector(code, vc));
  if (recon != nullptr) store_narrow<T>(recon + i, good ? rec : xd);
  return code;
}

/// Appends the raw values of the code-0 points among n to `outliers`.
template <typename T>
inline void collect_outliers(const T* x, const std::uint32_t* codes, std::size_t n,
                             std::vector<T>& outliers) {
  for (std::size_t i = 0; i < n; ++i) {
    if (codes[i] == 0) outliers.push_back(x[i]);
  }
}

template <typename T>
void quantize_row(const T* x, std::size_t n, const Rolling& s, std::uint32_t* codes,
                  T* recon, std::vector<T>& outliers, CodeHistogram* hist,
                  const Consts& k) {
  vl bprev = {};
  std::size_t z = 0;
  const std::size_t body = n - n % V;
  std::uint64_t zeros = 0;  // zero-residual codes of all-zero groups
  while (z < body) {
    const std::size_t end = std::min(body, z + kGroup);
    vl bad = {}, other = {};
    for (std::size_t i = z; i < end; i += V) {
      const vl code = quantize_chunk<T>(x, s, i, bprev, codes, recon, k);
      bad |= code == 0;
      other |= code != k.radius;
    }
    if (any_lane(bad)) collect_outliers(x + z, codes + z, end - z, outliers);
    if (hist != nullptr) {
      if (any_lane(other)) {
        hist->add(codes + z, end - z);
      } else {
        zeros += end - z;
      }
    }
    z = end;
  }
  if (z < n) {
    // The ragged tail runs through the same chunk on zero-padded copies;
    // only its m real lanes are copied back.
    const std::size_t m = n - z;
    T xt[V] = {}, ot[V] = {};
    std::int64_t pt[V] = {}, rt[V] = {};
    std::uint32_t ct[V] = {};
    std::memcpy(xt, x + z, m * sizeof(T));
    if (s.hx) std::memcpy(pt, s.plane + z, m * sizeof(std::int64_t));
    if (s.hy) std::memcpy(rt, s.row + z, m * sizeof(std::int64_t));
    quantize_chunk<T>(xt, {pt, rt, s.hx, s.hy, true, true}, 0, bprev, ct, ot, k);
    std::memcpy(codes + z, ct, m * sizeof(std::uint32_t));
    if (recon != nullptr) std::memcpy(recon + z, ot, m * sizeof(T));
    if (s.sx) std::memcpy(s.plane + z, pt, m * sizeof(std::int64_t));
    if (s.sy) std::memcpy(s.row + z, rt, m * sizeof(std::int64_t));
    collect_outliers(xt, ct, m, outliers);
    if (hist != nullptr) hist->add(ct, m);
  }
  if (hist != nullptr) hist->add_zeros(zeros);
}

/// Calls fn(offset, rolling state) for each row of the block in order.
template <typename RowFn>
inline void for_each_row(const LatticeBlock& blk, RowFn&& fn) {
  const Dims& d = blk.dims;
  for (std::size_t x = 0; x < d.d0; ++x) {
    for (std::size_t y = 0; y < d.d1; ++y) {
      fn((x * d.d1 + y) * d.d2,
         Rolling{blk.plane != nullptr ? blk.plane + y * d.d2 : nullptr, blk.row, x > 0,
                 y > 0, d.d0 > 1, d.d1 > 1});
    }
  }
}

/// Decodes elements [i0, i1) of a row one at a time; the path for chunks
/// holding an outlier and for the ragged tail. `b` carries the running
/// prefix sum in and out; `next` is the outlier cursor.
template <typename T>
void dequantize_points(const std::uint32_t* codes, std::size_t i0, std::size_t i1,
                       const Rolling& s, std::uint64_t& b, std::span<const T> outliers,
                       std::size_t& next, T* out, const Consts& k) {
  const auto radius = static_cast<std::uint64_t>(k.radius);
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint64_t qp = s.hx ? static_cast<std::uint64_t>(s.plane[i]) : 0;
    const std::uint64_t ap = s.hy ? static_cast<std::uint64_t>(s.row[i]) : 0;
    std::uint64_t a, q;
    if (codes[i] == 0) {
      if (next >= outliers.size()) throw std::runtime_error("sz: outlier underrun");
      const T v = outliers[next++];
      q = static_cast<std::uint64_t>(lattice_point(static_cast<double>(v), k.inv));
      a = q - qp;
      b = a - ap;
      out[i] = v;
    } else {
      b += static_cast<std::uint64_t>(codes[i]) - radius;
      a = b + ap;
      q = a + qp;
      out[i] = static_cast<T>(static_cast<double>(static_cast<std::int64_t>(q)) *
                              k.twice_eb);
    }
    if (s.sx) s.plane[i] = static_cast<std::int64_t>(q);
    if (s.sy) s.row[i] = static_cast<std::int64_t>(a);
  }
}

template <typename T>
void dequantize_row(const std::uint32_t* codes, std::size_t n, const Rolling& s,
                    std::span<const T> outliers, std::size_t& next, T* out,
                    const Consts& k) {
  const vu radius = vu{} + static_cast<std::uint64_t>(k.radius);
  vu carry = {};
  std::size_t z = 0;
  const std::size_t body = n - n % V;
  for (; z < body; z += V) {
    const vu c = __builtin_convertvector(load<vc>(codes + z), vu);
    if (any_lane(reinterpret_cast<vl>(c == 0))) {
      std::uint64_t b = carry[0];
      dequantize_points<T>(codes, z, z + V, s, b, outliers, next, out, k);
      carry = vu{} + b;
      continue;
    }
    const vu b = prefix_sum(c - radius) + carry;
    carry = broadcast_last(b);
    vu a = b;
    if (s.hy) a += load<vu>(s.row + z);
    if (s.sy) store(s.row + z, a);
    vu q = a;
    if (s.hx) q += load<vu>(s.plane + z);
    if (s.sx) store(s.plane + z, q);
    store_narrow<T>(out + z, __builtin_convertvector(reinterpret_cast<vl>(q), vd) *
                                 k.twice_eb);
  }
  std::uint64_t b = carry[0];
  dequantize_points<T>(codes, z, n, s, b, outliers, next, out, k);
}

template <typename T>
void quantize_block(const T* data, const LatticeBlock& blk, std::uint32_t* codes,
                    std::vector<T>& outliers, T* recon, CodeHistogram* hist) {
  const Consts k = consts_of(blk);
  for_each_row(blk, [&](std::size_t off, const Rolling& s) {
    quantize_row<T>(data + off, blk.dims.d2, s, codes + off,
                    recon != nullptr ? recon + off : nullptr, outliers, hist, k);
  });
}

template <typename T>
void dequantize_block(const std::uint32_t* codes, std::span<const T> outliers,
                      const LatticeBlock& blk, T* out) {
  const Consts k = consts_of(blk);
  std::size_t next = 0;
  for_each_row(blk, [&](std::size_t off, const Rolling& s) {
    dequantize_row<T>(codes + off, blk.dims.d2, s, outliers, next, out + off, k);
  });
  if (next != outliers.size()) throw std::runtime_error("sz: outlier overrun");
}

}  // namespace lattice
}  // namespace

template <typename T>
void lattice_quantize(const T* data, const LatticeBlock& blk, std::uint32_t* codes,
                      std::vector<T>& outliers, T* recon, CodeHistogram* hist) {
  lattice::quantize_block<T>(data, blk, codes, outliers, recon, hist);
}

template <typename T>
void lattice_dequantize(const std::uint32_t* codes, std::span<const T> outliers,
                        const LatticeBlock& blk, T* out) {
  lattice::dequantize_block<T>(codes, outliers, blk, out);
}

template void lattice_quantize<float>(const float*, const LatticeBlock&, std::uint32_t*,
                                      std::vector<float>&, float*, CodeHistogram*);
template void lattice_quantize<double>(const double*, const LatticeBlock&, std::uint32_t*,
                                       std::vector<double>&, double*, CodeHistogram*);
template void lattice_dequantize<float>(const std::uint32_t*, std::span<const float>,
                                        const LatticeBlock&, float*);
template void lattice_dequantize<double>(const std::uint32_t*, std::span<const double>,
                                         const LatticeBlock&, double*);

}  // namespace pcw::sz::kern::PCW_KERNEL_NS

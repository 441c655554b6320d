// Lorenzo prediction + error-bounded linear quantization.
//
// The decorrelation stage of the pcw::sz compressor, in two forms:
//
//  * The lattice predictor (Predictor::kLattice; dual quantization, after
//    cuSZ — Tian et al., PACT 2020), which the writer uses for every
//    spatial block. Each value is rounded onto the lattice
//    q = round(x / 2eb), then q - L(q) is coded exactly in integers, with
//    L the 1-, 2- or 3-D Lorenzo stencil zero-padded at the block's
//    faces. No prediction reads a reconstructed value, so there is no
//    serial chain and the kernel vectorizes along rows
//    (src/sz/lattice_impl.h). The bound holds point-wise because every
//    reconstruction T(q * 2eb) is checked against its original; a point
//    that misses stores its raw value as an outlier.
//  * The classic stencil (Predictor::kSpatial, SZ's "best-fit" path),
//    decode-only: earlier writers predicted each point from already-
//    reconstructed neighbours and quantized the residual to a multiple
//    of 2 * eb. Blobs holding such blocks keep decoding.
//
// In both, code 0 marks an outlier whose raw value is stored in
// `outliers`; codes [1, 2*radius-1] encode the signed residual
// code - radius.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sz/blocks.h"
#include "sz/dims.h"

namespace pcw::sz {

/// One quantized block: a code per point and the raw values of its
/// outliers, in point order.
template <typename T>
struct QuantizeResult {
  std::vector<std::uint32_t> codes;  // one per input point
  std::vector<T> outliers;           // raw values of code==0 points, in order
  /// The reconstruction the decompressor will reproduce, bit for bit,
  /// where a quantizer exports it per block (temporal_quantize); the
  /// time-series writer keeps it as the next temporal reference.
  std::vector<T> recon;
};

/// Quantizes every block of a split_blocks() decomposition of `data` (or
/// any set of disjoint blocks of it) with the lattice predictor, fanning
/// the blocks across `threads`. radius must be >= 2; SZ's default 32768
/// gives a 65536-code alphabet. The results are the same for every
/// thread count and dispatch level.
///
/// The returned results have empty `recon` vectors: the reconstruction
/// lands in `recon_out` (full-field length, block slices disjoint) when
/// it is non-null, so compress never holds a second field copy. When
/// `counts` is non-empty (2 * radius entries) it receives the code
/// histogram summed over every block, counted inside the kernel while
/// the codes are cache-resident. `on_block` (optional) runs on the
/// worker thread right after block b is quantized and counted, so a next
/// stage (run tokenization) reads the codes while they are still in
/// cache.
template <typename T>
std::vector<QuantizeResult<T>> lattice_quantize_blocks(
    std::span<const T> data, std::span<const BlockRange> blocks, double eb,
    std::uint32_t radius, unsigned threads, T* recon_out = nullptr,
    std::span<std::uint64_t> counts = {},
    const std::function<void(std::size_t, QuantizeResult<T>&)>& on_block = {});

/// Inverse of the lattice predictor for one block. `out` must have
/// dims.count() elements.
template <typename T>
void lattice_dequantize(std::span<const std::uint32_t> codes,
                        std::span<const T> outliers, const Dims& dims, double eb,
                        std::uint32_t radius, std::span<T> out);

/// Inverse of the classic stencil (predictor kSpatial) for one block.
/// `out` must have dims.count() elements.
template <typename T>
void lorenzo_dequantize(std::span<const std::uint32_t> codes,
                        std::span<const T> outliers, const Dims& dims, double eb,
                        std::uint32_t radius, std::span<T> out);

}  // namespace pcw::sz

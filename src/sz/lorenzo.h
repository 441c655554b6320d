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
#include <span>
#include <vector>

#include "sz/blocks.h"
#include "sz/dims.h"
#include "sz/huffman.h"
#include "util/uninit_vector.h"

namespace pcw::sz {

/// One quantized block: a code per point and the raw values of its
/// outliers, in point order.
template <typename T>
struct QuantizeResult {
  /// One per input point. Allocated unwritten: the quantizer writes
  /// every code.
  util::UninitVector<std::uint32_t> codes;
  std::vector<T> outliers;  // raw values of code==0 points, in order
  /// The reconstruction the decompressor will reproduce, bit for bit,
  /// where a quantizer exports it per block (temporal_quantize); the
  /// time-series writer keeps it as the next temporal reference.
  std::vector<T> recon;
};

/// The symbol histogram of a set of blocks, summed over the blocks'
/// symbol passes (kern::symbol_pass): plain codes and, with `runs`, run
/// tokens, plus the tokens' raw length bits.
struct SymbolCounts {
  SymbolCounts(std::uint32_t radius, bool runs)
      : runs(runs), hist(runs ? run_alphabet(radius) : 2ull * radius, 0) {}
  bool runs;                        // runs of zero residuals become tokens
  std::vector<std::uint64_t> hist;  // indexed by symbol
  std::uint64_t length_bits = 0;
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
/// `symbols` is non-null, each block's symbol pass runs on the worker
/// right after its kernel, while the codes are still in cache: the
/// returned codes are then the symbol stream the encoder codes (run
/// tokens in place when symbols->runs), and the sums over every block
/// are added to symbols->hist and length_bits (a new SymbolCounts holds
/// zeros).
template <typename T>
std::vector<QuantizeResult<T>> lattice_quantize_blocks(
    std::span<const T> data, std::span<const BlockRange> blocks, double eb,
    std::uint32_t radius, unsigned threads, T* recon_out = nullptr,
    SymbolCounts* symbols = nullptr);

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

// pcw::sz top-level error-bounded lossy compressor (SZ3 stand-in).
//
// Pipeline: Lorenzo predict+quantize -> canonical Huffman -> LZ back end.
// The container is self-describing: decompress() needs only the blob.
//
// Container v2 splits the field into independent slabs (sz/blocks.h) that
// compress and decompress in parallel on util::ThreadPool, sharing one
// canonical codebook built from the merged per-block histograms. v1
// (single-stream) blobs remain readable.
//
// Container v3 (Params::predictor = kTemporal) adds the temporal
// predictor for time series: blocks quantize x_t[i] - x̂_{t-1}[i] against
// the reconstructed previous step, falling back to the spatial stencil
// per block when the delta histogram costs more, with the choice recorded
// in the block index. With Params::checksum = false, spatial compressions
// keep emitting v2 byte-for-byte and temporal ones v3.
//
// Container v4 (Params::checksum, the default) adds CRC32C integrity
// data: a header checksum, a checksum of the stored (post-LZ) payload, a
// checksum of the codebook section, and one per block (its Huffman
// substream + outlier run). decompress()/decompress_region() verify per
// the VerifyMode knob; verify_blob() checks a blob without decoding it.
// See docs/integrity.md for the byte layout.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sz/dims.h"

namespace pcw::sz {

enum class DataType : std::uint8_t { kFloat32 = 0, kFloat64 = 1 };

/// Maps an element type to its container tag; the single authority shared
/// by the compressor, filters, and engine (was copy-pasted per layer).
template <typename T>
constexpr DataType dtype_of();
template <>
constexpr DataType dtype_of<float>() {
  return DataType::kFloat32;
}
template <>
constexpr DataType dtype_of<double>() {
  return DataType::kFloat64;
}

enum class ErrorBoundMode : std::uint8_t {
  kAbsolute = 0,   // |recon - orig| <= error_bound
  kRelative = 1,   // |recon - orig| <= error_bound * (max - min)
};

/// Decorrelation stage. kSpatial is the Lorenzo stencil (container v2);
/// kTemporal predicts each point from the reconstructed previous time
/// step and quantizes x_t[i] - x̂_{t-1}[i] (container v3). The choice is
/// re-made *per block*: a temporal compression falls back to the spatial
/// stencil for any block whose delta histogram would cost more bits, so a
/// turbulent region never pays for a bad reference. The per-block choice
/// is recorded in the block index.
enum class Predictor : std::uint8_t { kSpatial = 0, kTemporal = 1 };

/// Read-side checksum verification depth (container v4; a no-op on v1–v3
/// blobs, which carry no checksums).
///   kOff   — trust the bytes; zero verification cost.
///   kBlob  — verify the header CRC and the CRC of the stored (post-LZ)
///            payload before decoding: every flipped bit anywhere in the
///            blob is detected with one sequential CRC pass and no
///            entropy decode or LZ expansion.
///   kBlock — verify the header + codebook CRCs plus the per-block CRC of
///            each block actually decoded; a partial region read pays
///            only for the blocks it touches. When the blob carries an LZ
///            stage the stored-payload CRC is checked too (the expansion
///            reads every stored byte anyway, and per-block CRCs alone
///            cannot catch an LZ-stream flip whose expansion reproduces
///            identical bytes). The default.
enum class VerifyMode : std::uint8_t { kOff = 0, kBlob = 1, kBlock = 2 };

struct Params {
  ErrorBoundMode mode = ErrorBoundMode::kAbsolute;
  double error_bound = 1e-3;
  /// Half-width of the quantization codebook; alphabet is 2*radius codes.
  /// SZ's default. Larger radius = fewer outliers, bigger codebook.
  std::uint32_t radius = 32768;
  /// Apply the LZ lossless stage when it shrinks the payload.
  bool lossless = true;
  /// Worker threads for the block-parallel pipeline: 1 = serial (default),
  /// 0 = all hardware threads, N = exactly N. The blob is byte-identical
  /// for every value — blocks are a pure function of the extents.
  unsigned threads = 1;
  /// kTemporal requires the prev-step overload of compress(); kSpatial
  /// with checksum = false keeps emitting container v2 byte-for-byte.
  Predictor predictor = Predictor::kSpatial;
  /// Emit container v4 with CRC32C checksums (header, stored payload,
  /// codebook, and per block). false reproduces the legacy v2/v3 bytes
  /// exactly. Checksums are computed inside the parallel encode stages,
  /// off the serial assembly path.
  bool checksum = true;
  /// Verification depth applied by the decompress entry points when this
  /// Params is used on the read side (h5::SzFilter threads it through).
  VerifyMode verify = VerifyMode::kBlock;
};

/// Parsed container header, exposed for tests/benches/the ratio model.
struct HeaderInfo {
  DataType dtype = DataType::kFloat32;
  Dims dims;
  double abs_error_bound = 0.0;   // as applied (relative already resolved)
  std::uint32_t radius = 0;
  std::uint64_t outlier_count = 0;
  bool lz_applied = false;
  std::uint64_t payload_raw_size = 0;   // pre-LZ payload bytes
  std::uint64_t header_size = 0;        // container header + block index bytes
  std::uint32_t version = 0;            // container version (1, 2, 3 or 4)
  std::uint32_t block_count = 0;        // v2+ slab count (1 for v1)
  /// Blocks whose predictor is kTemporal; > 0 means decoding needs the
  /// reconstructed reference step (the prev overloads below).
  std::uint32_t temporal_blocks = 0;
  /// True for container v4: the blob carries CRC32C checksums.
  bool checksummed = false;
};

/// Compresses `data`; throws std::invalid_argument on bad params/sizes.
/// Params::predictor must be kSpatial (use the prev overload for
/// temporal compression).
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, const Dims& dims,
                                   const Params& params);

/// Temporal-capable compress: with Params::predictor == kTemporal, `prev`
/// must hold the *reconstructed* previous step (dims.count() elements,
/// i.e. what decompress returned / recon_out delivered for step t-1);
/// each block then stores whichever of the temporal delta or the spatial
/// stencil entropy-codes smaller. With kSpatial, `prev` must be empty and
/// the output matches the two-argument overload byte-for-byte. If
/// `recon_out` is non-null it receives the reconstruction the
/// decompressor will reproduce (bit-identical) — the cheap way for a
/// series writer to keep the next reference without a decode pass.
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, const Dims& dims,
                                   const Params& params, std::span<const T> prev,
                                   std::vector<T>* recon_out = nullptr);

/// Decompresses a blob produced by compress<T>. Throws std::runtime_error
/// on malformed input, element-type mismatch, checksum mismatch (per
/// `verify`, container v4), or when the blob contains temporal blocks
/// (those need the prev overload). If `dims_out` is non-null it receives
/// the stored extents. `threads` fans v2+ blocks out across
/// util::ThreadPool (same 0/1/N semantics as Params::threads); the output
/// is identical for every value.
template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> blob, Dims* dims_out = nullptr,
                          unsigned threads = 1,
                          VerifyMode verify = VerifyMode::kBlock);

/// Temporal-capable decompress: `prev` holds the reconstructed reference
/// step (dims.count() elements) temporal blocks dequantize against;
/// spatial blocks ignore it, so passing the reference to an all-spatial
/// blob is valid. Throws std::invalid_argument when prev is non-empty but
/// the wrong size, std::runtime_error when temporal blocks are present
/// and prev is empty.
template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> blob, std::span<const T> prev,
                          Dims* dims_out = nullptr, unsigned threads = 1,
                          VerifyMode verify = VerifyMode::kBlock);

/// Instrumentation for a decompress_region call: how much of the blob was
/// actually decoded. Tests pin that a v2 partial read touches only the
/// blocks intersecting the request; tools report read cost from it.
struct RegionDecodeStats {
  std::uint64_t blocks_total = 0;    // blocks in the container (1 for v1)
  std::uint64_t blocks_decoded = 0;  // blocks Huffman-decoded + dequantized
  /// True when the v2 block index drove a partial decode; false on the v1
  /// fallback (full decode + slice).
  bool used_block_index = false;
};

/// Decompresses only the hyperslab `region` (half-open [lo, hi) box in the
/// stored extents). On a v2 blob, only the slabs overlapping the request
/// are entropy-decoded and dequantized — in parallel across `threads` —
/// so a thin slice of a large field costs a fraction of a full decode. v1
/// blobs fall back to full decode + slice, so old containers keep
/// working. Returns region.count() elements in the region's own row-major
/// order. Throws std::invalid_argument on an inverted or out-of-bounds
/// request and std::runtime_error on malformed blobs / type mismatch.
/// decompress() runs the same block decoder on the whole field.
template <typename T>
std::vector<T> decompress_region(std::span<const std::uint8_t> blob, const Region& region,
                                 unsigned threads = 1, RegionDecodeStats* stats = nullptr,
                                 VerifyMode verify = VerifyMode::kBlock);

/// Out-span form of decompress_region: writes the region.count() elements
/// straight into `out` (std::invalid_argument when the sizes differ).
/// Blocks wholly inside the region dequantize in place in `out`. When
/// `region_dims` is non-null it names the extents `region` is expressed in
/// (same element count as the stored extents): extents that match take
/// the block-indexed decode; others — e.g. a flat {1,1,n} view of a 3-D
/// blob — decode the whole field and slice in the caller's coordinates.
template <typename T>
void decompress_region_into(std::span<const std::uint8_t> blob, const Region& region,
                            std::span<T> out, unsigned threads = 1,
                            RegionDecodeStats* stats = nullptr,
                            VerifyMode verify = VerifyMode::kBlock,
                            const Dims* region_dims = nullptr);

/// Temporal-capable region decode: `prev_region` holds the reconstructed
/// reference step *over the same region* (region.count() elements in the
/// region's own row-major order — e.g. the previous link of a restart
/// chain). Temporal blocks entropy-decode whole (Huffman streams are
/// sequential) but dequantize only the selected rows against prev_region,
/// so a chained sparse read never materializes reference data outside the
/// request. Spatial blocks ignore prev_region. Throws
/// std::invalid_argument when prev_region is non-empty but not
/// region.count() elements, std::runtime_error when a selected temporal
/// block has no reference.
template <typename T>
std::vector<T> decompress_region(std::span<const std::uint8_t> blob, const Region& region,
                                 std::span<const T> prev_region, unsigned threads = 1,
                                 RegionDecodeStats* stats = nullptr,
                                 VerifyMode verify = VerifyMode::kBlock);

/// Parses the container header without touching the payload.
HeaderInfo inspect(std::span<const std::uint8_t> blob);

/// verify_blob() outcome — a non-throwing damage report for scrub tools.
struct BlobVerifyReport {
  bool parsed = false;        // header parsed and structurally consistent
  std::uint32_t version = 0;  // container version (0 when unparseable)
  bool checksummed = false;   // v4: the blob carries CRCs to check
  /// parsed, structurally sound, and every applicable checksum matched.
  /// For v1–v3 blobs this is structural consistency only.
  bool ok = false;
  /// Deep mode, v4: indices of blocks whose CRC failed.
  std::vector<std::uint32_t> damaged_blocks;
  std::string detail;  // first failure, human-readable ("" when ok)
};

/// Verifies a blob without decoding it and without throwing. The cheap
/// pass checks structure plus (v4) the header and stored-payload CRCs —
/// enough to detect any corruption. `deep` additionally expands LZ (which
/// also validates the stored extent of legacy pre-v4 LZ blobs) and, on
/// v4, checks the codebook and every per-block CRC, localizing the
/// damage to block indices so region reads can route around it.
BlobVerifyReport verify_blob(std::span<const std::uint8_t> blob, bool deep = false);

/// One v2/v3 block-index entry, exposed for tools (pcw5ls --blocks) and
/// tests. stored_bytes(sizeof(T)) is the pre-LZ payload share of the
/// block — the marginal cost of decoding it in a partial read.
struct BlockInfo {
  std::uint64_t elem_count = 0;
  std::uint64_t huff_bytes = 0;
  std::uint64_t outlier_count = 0;
  /// v3 per-block choice; always kSpatial for v1/v2 containers.
  Predictor predictor = Predictor::kSpatial;

  std::uint64_t stored_bytes(std::size_t elem_size) const {
    return huff_bytes + outlier_count * elem_size;
  }
};

/// The per-block index of a v2 blob, in block order; a v1 blob yields one
/// synthetic entry covering the whole field.
std::vector<BlockInfo> inspect_blocks(std::span<const std::uint8_t> blob);

/// Upper bound on the container header + block index size for any
/// supported version: the leading kMaxHeaderBytes of a blob always
/// suffice for inspect()/inspect_blocks(), which is what lets tools
/// summarize huge datasets with header-sized reads. Pinned against the
/// layout constants by a static_assert in compressor.cc.
inline constexpr std::size_t kMaxHeaderBytes = 2048;

/// Bits per element for a compressed blob of `compressed_bytes` covering
/// `element_count` values.
inline double bit_rate(std::size_t compressed_bytes, std::size_t element_count) {
  return element_count == 0
             ? 0.0
             : 8.0 * static_cast<double>(compressed_bytes) / static_cast<double>(element_count);
}

/// original/compressed size ratio for T-typed data.
template <typename T>
double compression_ratio(std::size_t compressed_bytes, std::size_t element_count) {
  return compressed_bytes == 0 ? 0.0
                               : static_cast<double>(element_count * sizeof(T)) /
                                     static_cast<double>(compressed_bytes);
}

/// Resolves a Params error bound against concrete data (relative mode uses
/// the value range). Exposed so the ratio model applies identical logic.
template <typename T>
double resolve_error_bound(std::span<const T> data, const Params& params);

}  // namespace pcw::sz

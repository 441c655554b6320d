#include "sz/compressor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "sz/blocks.h"
#include "sz/huffman.h"
#include "sz/kernels.h"
#include "sz/lorenzo.h"
#include "sz/lossless.h"
#include "sz/temporal.h"
#include "util/bitstream.h"
#include "util/crc32c.h"
#include "util/metrics.h"
#include "util/pod_io.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace pcw::sz {
namespace {

constexpr std::uint32_t kMagic = 0x5A574350;  // "PCWZ"
constexpr std::uint8_t kVersionV1 = 1;
constexpr std::uint8_t kVersionV2 = 2;
constexpr std::uint8_t kVersionV3 = 3;
constexpr std::uint8_t kVersionV4 = 4;
constexpr std::uint8_t kFlagLz = 0x01;
// Informational fast-path flag: set iff any block index entry records the
// temporal predictor (the blob cannot decode without a reference step).
constexpr std::uint8_t kFlagTemporal = 0x02;

// v2 fixed header: magic..payload_raw_size (the v1 header, 76 bytes) plus
// the u32 block count; the per-block index follows. v3 shares the fixed
// header and appends one predictor byte to each index entry.
//
// v4 inserts integrity fields between payload_raw_size and the block
// count: stored_size u64 (the stored, post-LZ payload bytes — the exact
// extent the stored-payload CRC covers), header_crc u32 at [84, 88)
// (CRC32C of the whole header with these four bytes zeroed), codebook_crc
// u32, stored_crc u32. Each v4 index entry always carries the predictor
// byte plus a block CRC (its pre-LZ Huffman substream ++ outlier run).
constexpr std::size_t kV2FixedHeaderBytes = 80;
constexpr std::size_t kV2IndexEntryBytes = 24;
constexpr std::size_t kV3IndexEntryBytes = 25;
constexpr std::size_t kV4FixedHeaderBytes = 100;
constexpr std::size_t kV4IndexEntryBytes = 29;
constexpr std::size_t kV4HeaderCrcOffset = 84;
static_assert(kV2FixedHeaderBytes + kMaxBlocks * kV3IndexEntryBytes <= kMaxHeaderBytes &&
                  kV4FixedHeaderBytes + kMaxBlocks * kV4IndexEntryBytes <= kMaxHeaderBytes,
              "kMaxHeaderBytes no longer covers the largest possible header");

// Structural plausibility caps, all provable for any blob our encoder can
// emit (max code length 56 bits, ≤ 1 outlier per element, codebook of
// count u32 + ≤ 6 bytes per distinct symbol, LZ extension bytes add ≤ 255
// output bytes each). A header that violates one is malformed, rejected
// before its fields can size an allocation — the fuzz-sweep guarantee
// that truncated or bit-flipped blobs can never OOM the reader.
constexpr std::uint64_t kMaxHuffBitsPerElem = 56;
constexpr std::uint64_t kMaxCodebookBytesPerSymbol = 6;
constexpr std::uint64_t kMaxLzExpansion = 300;
constexpr std::uint64_t kCapSlackBytes = 65536;

using util::append_pod;

template <typename T>
T read_pod(std::span<const std::uint8_t> in, std::size_t& pos) {
  if (pos + sizeof(T) > in.size()) throw std::runtime_error("sz: truncated header");
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

/// One block-index entry: element extent, Huffman substream bytes,
/// outlier count, and (v3) the per-block predictor choice, in block order.
struct BlockEntry {
  std::uint64_t elem_count = 0;
  std::uint64_t huff_bytes = 0;
  std::uint64_t outlier_count = 0;
  Predictor predictor = Predictor::kSpatial;
  std::uint32_t block_crc = 0;  // v4: CRC32C(huff substream ++ outlier run)
};

struct RawHeader {
  std::uint8_t version = 0;
  std::uint8_t flags = 0;
  DataType dtype = DataType::kFloat32;
  Dims dims;
  double abs_eb = 0.0;
  std::uint32_t radius = 0;
  std::uint64_t outlier_count = 0;
  std::uint64_t codebook_size = 0;
  std::uint64_t huff_bytes = 0;
  std::uint64_t payload_raw_size = 0;
  std::uint64_t stored_size = 0;    // v4: stored (post-LZ) payload bytes
  std::uint32_t header_crc = 0;     // v4
  std::uint32_t codebook_crc = 0;   // v4
  std::uint32_t stored_crc = 0;     // v4
  std::vector<BlockEntry> blocks;   // v2+ only; empty for v1
  std::size_t header_end = 0;

  std::size_t elem_size() const { return dtype == DataType::kFloat32 ? 4 : 8; }
};

RawHeader parse_header(std::span<const std::uint8_t> blob) {
  std::size_t pos = 0;
  if (read_pod<std::uint32_t>(blob, pos) != kMagic) {
    throw std::runtime_error("sz: bad magic");
  }
  RawHeader h;
  h.version = read_pod<std::uint8_t>(blob, pos);
  if (h.version < kVersionV1 || h.version > kVersionV4) {
    throw std::runtime_error("sz: unsupported version");
  }
  const std::uint8_t dtype_byte = read_pod<std::uint8_t>(blob, pos);
  if (dtype_byte > static_cast<std::uint8_t>(DataType::kFloat64)) {
    throw std::runtime_error("sz: unknown element type");
  }
  h.dtype = static_cast<DataType>(dtype_byte);
  h.flags = read_pod<std::uint8_t>(blob, pos);
  (void)read_pod<std::uint8_t>(blob, pos);  // reserved
  h.dims.d0 = read_pod<std::uint64_t>(blob, pos);
  h.dims.d1 = read_pod<std::uint64_t>(blob, pos);
  h.dims.d2 = read_pod<std::uint64_t>(blob, pos);
  h.abs_eb = read_pod<double>(blob, pos);
  h.radius = read_pod<std::uint32_t>(blob, pos);
  h.outlier_count = read_pod<std::uint64_t>(blob, pos);
  h.codebook_size = read_pod<std::uint64_t>(blob, pos);
  h.huff_bytes = read_pod<std::uint64_t>(blob, pos);
  h.payload_raw_size = read_pod<std::uint64_t>(blob, pos);
  if (h.version >= kVersionV4) {
    h.stored_size = read_pod<std::uint64_t>(blob, pos);
    h.header_crc = read_pod<std::uint32_t>(blob, pos);
    h.codebook_crc = read_pod<std::uint32_t>(blob, pos);
    h.stored_crc = read_pod<std::uint32_t>(blob, pos);
  }
  if (h.version >= kVersionV2) {
    const std::uint32_t n_blocks = read_pod<std::uint32_t>(blob, pos);
    if (n_blocks == 0) throw std::runtime_error("sz: zero block count");
    // The writer never emits more than kMaxBlocks slabs, and the
    // kMaxHeaderBytes guarantee is sized to that cap — a bigger count is
    // a malformed header, rejected before it can drive a huge reserve.
    if (n_blocks > kMaxBlocks) {
      throw std::runtime_error("sz: block count exceeds format limit");
    }
    h.blocks.reserve(n_blocks);
    // Overflow-checked accumulation: wrapping sums would let crafted index
    // entries (e.g. two +2^63 offsets) pass the totals check below while
    // individual entries drive out-of-bounds substream offsets.
    auto checked_add = [](std::uint64_t a, std::uint64_t b) {
      std::uint64_t r;
      if (__builtin_add_overflow(a, b, &r)) {
        throw std::runtime_error("sz: block index overflow");
      }
      return r;
    };
    std::uint64_t elems = 0, huff = 0, outliers = 0;
    for (std::uint32_t b = 0; b < n_blocks; ++b) {
      BlockEntry e;
      e.elem_count = read_pod<std::uint64_t>(blob, pos);
      e.huff_bytes = read_pod<std::uint64_t>(blob, pos);
      e.outlier_count = read_pod<std::uint64_t>(blob, pos);
      if (h.version >= kVersionV3) {
        const auto p = read_pod<std::uint8_t>(blob, pos);
        if (p > static_cast<std::uint8_t>(Predictor::kTemporal)) {
          throw std::runtime_error("sz: unknown block predictor");
        }
        e.predictor = static_cast<Predictor>(p);
      }
      if (h.version >= kVersionV4) {
        e.block_crc = read_pod<std::uint32_t>(blob, pos);
      }
      if (e.elem_count == 0) throw std::runtime_error("sz: empty block");
      // Per-block plausibility: every element consumes at least one code
      // bit, and a block holds at most one outlier per element.
      if (e.huff_bytes < (e.elem_count + 7) / 8 || e.outlier_count > e.elem_count) {
        throw std::runtime_error("sz: block index inconsistent with header");
      }
      elems = checked_add(elems, e.elem_count);
      huff = checked_add(huff, e.huff_bytes);
      outliers = checked_add(outliers, e.outlier_count);
      h.blocks.push_back(e);
    }
    // element_count() is the overflow-checked dims product, so crafted
    // extents cannot wrap the totals comparison.
    if (elems != element_count(h.dims) || huff != h.huff_bytes ||
        outliers != h.outlier_count) {
      throw std::runtime_error("sz: block index inconsistent with header");
    }
  }
  h.header_end = pos;

  // Whole-header plausibility caps (see the constants above): reject any
  // header whose sizes could not have come from our encoder, before those
  // sizes can drive an allocation.
  const std::uint64_t n = element_count(h.dims);
  if (n == 0) throw std::runtime_error("sz: empty dims");
  std::uint64_t huff_cap, codebook_cap;
  const bool cap_overflow =
      __builtin_mul_overflow(n, kMaxHuffBitsPerElem / 8 + 1, &huff_cap) ||
      __builtin_add_overflow(huff_cap, kCapSlackBytes, &huff_cap) ||
      __builtin_mul_overflow(n, kMaxCodebookBytesPerSymbol, &codebook_cap) ||
      __builtin_add_overflow(codebook_cap, kCapSlackBytes, &codebook_cap);
  if (cap_overflow || h.outlier_count > n || h.huff_bytes > huff_cap ||
      h.codebook_size > codebook_cap || h.huff_bytes < (n + 7) / 8) {
    throw std::runtime_error("sz: header sizes implausible");
  }
  // The three payload sections must add up exactly; every later subspan
  // and the LZ expansion target are bounded once this holds.
  std::uint64_t outlier_bytes, sum;
  const bool sum_overflow =
      __builtin_mul_overflow(h.outlier_count,
                             static_cast<std::uint64_t>(h.elem_size()), &outlier_bytes) ||
      __builtin_add_overflow(h.codebook_size, h.huff_bytes, &sum) ||
      __builtin_add_overflow(sum, outlier_bytes, &sum);
  if (sum_overflow || sum != h.payload_raw_size) {
    throw std::runtime_error("sz: payload sections inconsistent with header");
  }
  if (h.version >= kVersionV4) {
    // Without LZ the stored section *is* the raw payload; with LZ it must
    // be smaller (the writer only keeps a winning LZ pass).
    const bool lz = (h.flags & kFlagLz) != 0;
    if (lz ? h.stored_size >= h.payload_raw_size
           : h.stored_size != h.payload_raw_size) {
      throw std::runtime_error("sz: stored size inconsistent with header");
    }
  }
  return h;
}

/// Reconstructs each v2 block's extents from its element count, inverting
/// split_blocks' slab rule. Throws if a block does not cover whole slabs.
std::vector<BlockRange> blocks_from_index(const RawHeader& h) {
  const Dims& dims = h.dims;
  const int axis = slowest_nonunit_axis(dims);
  const std::size_t axis_len = extent(dims, axis);
  const std::size_t row_elems = axis_len == 0 ? 1 : element_count(dims) / axis_len;
  std::vector<BlockRange> out;
  out.reserve(h.blocks.size());
  std::size_t offset = 0;
  for (const BlockEntry& e : h.blocks) {
    if (row_elems == 0 || e.elem_count % row_elems != 0) {
      throw std::runtime_error("sz: block extent not slab-aligned");
    }
    BlockRange b;
    b.elem_offset = offset;
    b.dims = slab_dims(dims, axis, e.elem_count / row_elems);
    offset += e.elem_count;
    out.push_back(b);
  }
  return out;
}

/// Checks the three payload sections add up exactly (with overflow-safe
/// arithmetic); every later subspan is bounds-safe once this holds.
void validate_payload_extent(const RawHeader& h, std::size_t elem_size,
                             std::size_t payload_size) {
  std::uint64_t outlier_bytes, sum;
  const bool overflow =
      __builtin_mul_overflow(h.outlier_count, static_cast<std::uint64_t>(elem_size),
                             &outlier_bytes) ||
      __builtin_add_overflow(h.codebook_size, h.huff_bytes, &sum) ||
      __builtin_add_overflow(sum, outlier_bytes, &sum);
  if (overflow || sum != h.payload_raw_size || payload_size < h.payload_raw_size) {
    throw std::runtime_error("sz: truncated payload");
  }
}

// ---- container v4 checksum computation / verification ----------------------

/// CRC32C of the header bytes with the header_crc field itself zeroed.
std::uint32_t header_crc_of(std::span<const std::uint8_t> header_bytes) {
  static constexpr std::uint8_t kZeros[4] = {0, 0, 0, 0};
  std::uint32_t c = util::crc32c(0, header_bytes.data(), kV4HeaderCrcOffset);
  c = util::crc32c(c, kZeros, sizeof(kZeros));
  c = util::crc32c(c, header_bytes.data() + kV4HeaderCrcOffset + 4,
                   header_bytes.size() - kV4HeaderCrcOffset - 4);
  return c;
}

void verify_header_crc(const RawHeader& h, std::span<const std::uint8_t> blob) {
  if (header_crc_of(blob.subspan(0, h.header_end)) != h.header_crc) {
    throw std::runtime_error("sz: header checksum mismatch");
  }
}

/// kBlob verification: one sequential CRC pass over the stored (post-LZ)
/// payload detects any flipped bit without LZ expansion or decode work.
void verify_stored_crc(const RawHeader& h, std::span<const std::uint8_t> blob) {
  if (blob.size() < h.header_end + h.stored_size) {
    throw std::runtime_error("sz: truncated payload");
  }
  if (util::crc32c(0, blob.subspan(h.header_end, h.stored_size)) != h.stored_crc) {
    throw std::runtime_error("sz: stored payload checksum mismatch");
  }
}

void verify_codebook_crc(const RawHeader& h, std::span<const std::uint8_t> payload) {
  if (util::crc32c(0, payload.subspan(0, h.codebook_size)) != h.codebook_crc) {
    throw std::runtime_error("sz: codebook checksum mismatch");
  }
}

/// Per-block CRC over the block's pre-LZ Huffman substream ++ outlier
/// run. The error names the block; callers up the stack prefix the
/// dataset and partition.
void verify_block_crc(const RawHeader& h, std::span<const std::uint8_t> payload,
                      std::size_t b, std::size_t huff_off, std::size_t outlier_off,
                      std::size_t elem_size) {
  const BlockEntry& e = h.blocks[b];
  std::uint32_t c = util::crc32c(0, payload.data() + huff_off, e.huff_bytes);
  c = util::crc32c(c, payload.data() + outlier_off, e.outlier_count * elem_size);
  if (c != e.block_crc) {
    throw std::runtime_error("sz: block " + std::to_string(b) + " checksum mismatch");
  }
}

/// Pre-decode verification per the VerifyMode knob (no-op below v4).
/// kBlock's per-block CRCs run later, on only the blocks being decoded.
void verify_before_decode(const RawHeader& h, std::span<const std::uint8_t> blob,
                          VerifyMode verify) {
  if (h.version < kVersionV4 || verify == VerifyMode::kOff) return;
  verify_header_crc(h, blob);
  // kBlock normally defers to the per-block CRCs of the decoded blocks,
  // but an LZ-compressed payload has a hole they cannot close: a flipped
  // match offset can expand to the exact same pre-LZ bytes when the match
  // source is periodic data. The expansion reads every stored byte anyway,
  // so the stored CRC costs one marginal pass and restores the guarantee
  // that every flipped bit fails the decode.
  if (verify == VerifyMode::kBlob || (h.flags & kFlagLz)) verify_stored_crc(h, blob);
}

}  // namespace

template <typename T>
double resolve_error_bound(std::span<const T> data, const Params& params) {
  if (params.error_bound <= 0.0) {
    throw std::invalid_argument("sz: error_bound must be > 0");
  }
  if (params.mode == ErrorBoundMode::kAbsolute) return params.error_bound;
  T lo = std::numeric_limits<T>::max();
  T hi = std::numeric_limits<T>::lowest();
  for (const T v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  // Degenerate (constant) data: any positive bound works; pick the raw one.
  return range > 0.0 ? params.error_bound * range : params.error_bound;
}

namespace {

/// Builds the code histogram used both for the shared codebook and for
/// the per-block predictor decision.
inline std::vector<std::uint32_t> code_histogram(const std::vector<std::uint32_t>& codes,
                                                 std::uint32_t radius) {
  std::vector<std::uint32_t> hist(2ull * radius, 0);
  for (const std::uint32_t c : codes) ++hist[c];
  return hist;
}

/// Estimated storage cost of one quantized block in bits: the Shannon
/// bound on its Huffman substream plus the raw bytes of its outliers. An
/// approximation (the codebook is shared across blocks), but a pure
/// function of the block's own codes — which is what keeps the per-block
/// predictor choice, and hence the blob, independent of thread count.
template <typename T>
double block_cost_bits(const std::vector<std::uint32_t>& hist, std::size_t outliers,
                       std::size_t elems) {
  const double total = static_cast<double>(elems);
  double bits = 0.0;
  for (const std::uint32_t count : hist) {
    if (count > 0) {
      bits += static_cast<double>(count) * std::log2(total / static_cast<double>(count));
    }
  }
  return bits + static_cast<double>(outliers) * 8.0 * static_cast<double>(sizeof(T));
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, const Dims& dims,
                                   const Params& params) {
  return compress<T>(data, dims, params, std::span<const T>{});
}

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, const Dims& dims,
                                   const Params& params, std::span<const T> prev,
                                   std::vector<T>* recon_out) {
  if (data.size() != dims.count() || data.empty()) {
    throw std::invalid_argument("sz: data size must equal dims.count() and be > 0");
  }
  const bool temporal = params.predictor == Predictor::kTemporal;
  if (temporal && prev.size() != data.size()) {
    throw std::invalid_argument("sz: temporal predictor needs a prev step of equal size");
  }
  if (!temporal && !prev.empty()) {
    throw std::invalid_argument("sz: prev step given but predictor is spatial");
  }
  const double eb = resolve_error_bound<T>(data, params);
  const std::vector<BlockRange> blocks = split_blocks(dims);
  const std::size_t n_blocks = blocks.size();
  util::trace::Span compress_span("compress", "sz", "bytes",
                                  data.size() * sizeof(T));

  // Stage 1: quantization + histogram. lorenzo_quantize_blocks runs
  // lockstep SIMD groups where the decomposition allows and writes the
  // spatial reconstruction straight into recon_out (series writers keep
  // it as the next temporal reference — blocks write disjoint slices, no
  // race), so compress never holds a second copy of the field. A
  // temporal compression then quantizes each block the delta way too and
  // keeps whichever entropy-codes smaller, so a block with a stale or
  // turbulent reference degrades to exactly the spatial cost.
  //
  // A spatial compression takes the summed code histogram `counts`
  // straight from the quantizer. A temporal one costs each block's two
  // predictors from their own histograms, so it keeps the winner's per
  // block in `hists` and sums them in stage 2.
  std::vector<std::uint64_t> counts(2ull * params.radius, 0);
  std::vector<std::vector<std::uint32_t>> hists(temporal ? n_blocks : 0);
  std::vector<Predictor> preds(n_blocks, Predictor::kSpatial);
  if (recon_out != nullptr) recon_out->resize(data.size());
  std::vector<QuantizeResult<T>> quants = lorenzo_quantize_blocks<T>(
      data, blocks, eb, params.radius, params.threads,
      recon_out != nullptr ? recon_out->data() : nullptr,
      temporal ? std::span<std::uint64_t>{} : std::span<std::uint64_t>(counts));
  if (temporal) util::parallel_for(n_blocks, params.threads, [&](std::size_t b) {
    const BlockRange& blk = blocks[b];
    const auto block_data = data.subspan(blk.elem_offset, blk.dims.count());
    auto delta = temporal_quantize<T>(
        block_data, prev.subspan(blk.elem_offset, blk.dims.count()), eb, params.radius);
    hists[b] = code_histogram(quants[b].codes, params.radius);
    auto delta_hist = code_histogram(delta.codes, params.radius);
    const double spatial_cost =
        block_cost_bits<T>(hists[b], quants[b].outliers.size(), block_data.size());
    const double delta_cost =
        block_cost_bits<T>(delta_hist, delta.outliers.size(), block_data.size());
    if (delta_cost < spatial_cost) {
      quants[b] = std::move(delta);
      hists[b] = std::move(delta_hist);
      preds[b] = Predictor::kTemporal;
      if (recon_out != nullptr) {
        std::copy(quants[b].recon.begin(), quants[b].recon.end(),
                  recon_out->begin() + static_cast<std::ptrdiff_t>(blk.elem_offset));
      }
    }
    std::vector<T>().swap(quants[b].recon);
  });

  // Stage 2: merge histograms into one shared canonical codebook. The
  // merge is a plain sum, so the codebook — and hence the whole blob — is
  // independent of how the blocks were scheduled.
  for (const auto& hist : hists) {
    for (std::size_t s = 0; s < hist.size(); ++s) counts[s] += hist[s];
  }
  hists.clear();
  std::vector<SymbolCount> freqs;
  for (std::uint32_t s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) freqs.push_back({s, counts[s]});
  }
  const HuffmanEncoder encoder(freqs);
  const std::vector<std::uint8_t> codebook = encoder.serialize_codebook();

  // Stage 3: per-block Huffman encoding into independent substreams. The
  // v4 block CRCs are taken here too, inside the parallel fan-out while
  // the substream is cache-hot — off the serial assembly path.
  std::vector<std::vector<std::uint8_t>> huffs(n_blocks);
  std::vector<std::uint32_t> block_crcs(n_blocks, 0);
  util::parallel_for(n_blocks, params.threads, [&](std::size_t b) {
    util::trace::Span span("huffman_encode", "sz", "block", b);
    util::BitWriter writer;
    writer.reserve_bytes(quants[b].codes.size() / 2);
    encoder.encode_all(quants[b].codes, writer);
    huffs[b] = writer.finish();
    if (params.checksum) {
      std::uint32_t c = util::crc32c(0, huffs[b].data(), huffs[b].size());
      c = util::crc32c(c, quants[b].outliers.data(),
                       quants[b].outliers.size() * sizeof(T));
      block_crcs[b] = c;
    }
  });

  // Stage 4: serial container assembly. With checksums off, a spatial
  // compression keeps emitting container v2 byte-for-byte and a temporal
  // one v3; with checksums on (the default) both emit v4, whose index
  // entries always carry the predictor byte plus the block CRC.
  const std::uint8_t version =
      params.checksum ? kVersionV4 : (temporal ? kVersionV3 : kVersionV2);
  const std::size_t entry_bytes =
      params.checksum ? kV4IndexEntryBytes
                      : (temporal ? kV3IndexEntryBytes : kV2IndexEntryBytes);
  std::uint64_t huff_total = 0, outlier_total = 0, symbol_total = 0;
  std::uint64_t temporal_blocks = 0;
  bool any_temporal = false;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    huff_total += huffs[b].size();
    outlier_total += quants[b].outliers.size();
    symbol_total += quants[b].codes.size();
    if (preds[b] == Predictor::kTemporal) ++temporal_blocks;
    any_temporal = any_temporal || preds[b] == Predictor::kTemporal;
  }
  const std::size_t payload_size = codebook.size() +
                                   static_cast<std::size_t>(huff_total) +
                                   static_cast<std::size_t>(outlier_total) * sizeof(T);
  const std::size_t fixed_bytes =
      params.checksum ? kV4FixedHeaderBytes : kV2FixedHeaderBytes;
  const std::size_t header_size = fixed_bytes + n_blocks * entry_bytes;

  // The LZ stage only pays off when the Huffman stream still carries long
  // runs — i.e. at low bit-rates. Past ~20% of the original bit width the
  // entropy stage output is effectively incompressible, and running LZ
  // there would only drag the throughput floor down (SZ keeps its Fig.-5
  // band ~2x wide for the same reason: its zstd pass is cheap relative to
  // our from-scratch LZ, so we gate instead).
  const double payload_bits_per_val =
      8.0 * static_cast<double>(payload_size) / static_cast<double>(data.size());
  const bool lz_worthwhile = payload_bits_per_val < 0.2 * 8.0 * sizeof(T);

  std::uint8_t flags = any_temporal ? kFlagTemporal : std::uint8_t{0};
  // When the LZ stage is attempted the payload is pre-assembled; `stored`
  // then holds whichever of (LZ output, raw payload) won, so the losing
  // branch never re-concatenates the parts.
  std::vector<std::uint8_t> stored;
  bool have_stored = false;
  if (params.lossless && lz_worthwhile) {
    std::vector<std::uint8_t> payload;
    payload.reserve(payload_size);
    payload.insert(payload.end(), codebook.begin(), codebook.end());
    for (const auto& huff : huffs) payload.insert(payload.end(), huff.begin(), huff.end());
    for (const auto& quant : quants) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(quant.outliers.data());
      payload.insert(payload.end(), p, p + quant.outliers.size() * sizeof(T));
    }
    std::vector<std::uint8_t> lz;
    {
      util::trace::Span span("lz", "sz", "bytes", payload.size());
      lz = lz_compress(payload);
    }
    if (lz.size() < payload.size()) {
      stored = std::move(lz);
      flags |= kFlagLz;
    } else {
      stored = std::move(payload);
    }
    have_stored = true;
  }

  // v4 integrity fields: the stored-payload CRC covers the bytes exactly
  // as they land in the container (post-LZ); without an LZ pass it is
  // chained over the sections to avoid materializing the payload twice.
  const std::uint64_t stored_size =
      have_stored ? stored.size() : static_cast<std::uint64_t>(payload_size);
  std::uint32_t codebook_crc = 0, stored_crc = 0;
  if (params.checksum) {
    codebook_crc = util::crc32c(0, codebook.data(), codebook.size());
    if (have_stored) {
      stored_crc = util::crc32c(0, stored.data(), stored.size());
    } else {
      std::uint32_t c = codebook_crc;
      for (const auto& huff : huffs) c = util::crc32c(c, huff.data(), huff.size());
      for (const auto& quant : quants) {
        c = util::crc32c(c, quant.outliers.data(), quant.outliers.size() * sizeof(T));
      }
      stored_crc = c;
    }
  }

  // Reserve the true final size up front; every append below lands in
  // place with no regrowth or second copy of the payload.
  std::vector<std::uint8_t> blob;
  blob.reserve(header_size + (have_stored ? stored.size() : payload_size));
  append_pod(blob, kMagic);
  append_pod(blob, version);
  append_pod(blob, static_cast<std::uint8_t>(dtype_of<T>()));
  append_pod(blob, flags);
  append_pod(blob, std::uint8_t{0});  // reserved
  append_pod(blob, static_cast<std::uint64_t>(dims.d0));
  append_pod(blob, static_cast<std::uint64_t>(dims.d1));
  append_pod(blob, static_cast<std::uint64_t>(dims.d2));
  append_pod(blob, eb);
  append_pod(blob, params.radius);
  append_pod(blob, outlier_total);
  append_pod(blob, static_cast<std::uint64_t>(codebook.size()));
  append_pod(blob, huff_total);
  append_pod(blob, static_cast<std::uint64_t>(payload_size));
  if (params.checksum) {
    append_pod(blob, stored_size);
    append_pod(blob, std::uint32_t{0});  // header_crc, patched below
    append_pod(blob, codebook_crc);
    append_pod(blob, stored_crc);
  }
  append_pod(blob, static_cast<std::uint32_t>(n_blocks));
  for (std::size_t b = 0; b < n_blocks; ++b) {
    append_pod(blob, static_cast<std::uint64_t>(blocks[b].dims.count()));
    append_pod(blob, static_cast<std::uint64_t>(huffs[b].size()));
    append_pod(blob, static_cast<std::uint64_t>(quants[b].outliers.size()));
    if (temporal || params.checksum) append_pod(blob, static_cast<std::uint8_t>(preds[b]));
    if (params.checksum) append_pod(blob, block_crcs[b]);
  }
  if (params.checksum) {
    // The header CRC is computed over the finished header with its own
    // field zeroed (it still is — the placeholder), then patched in.
    const std::uint32_t hcrc = header_crc_of(std::span(blob.data(), header_size));
    std::memcpy(blob.data() + kV4HeaderCrcOffset, &hcrc, sizeof(hcrc));
  }
  if (have_stored) {
    blob.insert(blob.end(), stored.begin(), stored.end());
  } else {
    blob.insert(blob.end(), codebook.begin(), codebook.end());
    for (const auto& huff : huffs) blob.insert(blob.end(), huff.begin(), huff.end());
    for (const auto& quant : quants) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(quant.outliers.data());
      blob.insert(blob.end(), p, p + quant.outliers.size() * sizeof(T));
    }
  }
  {
    auto& reg = util::metrics::Registry::get();
    reg.sz_bytes_in.add(data.size() * sizeof(T));
    reg.sz_bytes_out.add(blob.size());
    reg.sz_blocks_encoded.add(n_blocks);
    reg.sz_temporal_blocks.add(temporal_blocks);
    reg.sz_outliers.add(outlier_total);
    reg.sz_huffman_symbols.add(symbol_total);
  }
  return blob;
}

namespace {

/// Builds the shared Huffman decoder from the payload's codebook section.
HuffmanDecoder make_decoder(const RawHeader& h, std::span<const std::uint8_t> payload) {
  std::size_t consumed = 0;
  HuffmanDecoder decoder(payload.subspan(0, h.codebook_size), &consumed);
  if (consumed != h.codebook_size) {
    throw std::runtime_error("sz: codebook size mismatch");
  }
  return decoder;
}

/// v1 (single-stream) decode: one Huffman stream and one outlier run over
/// the whole domain, exactly as the seed compressor wrote it.
template <typename T>
void decode_v1(const RawHeader& h, std::span<const std::uint8_t> payload,
               std::span<T> out) {
  const HuffmanDecoder decoder = make_decoder(h, payload);
  const std::size_t n = h.dims.count();
  util::BitReader reader(payload.subspan(h.codebook_size, h.huff_bytes));
  std::vector<std::uint32_t> codes(n);
  decoder.decode_run(reader, codes.data(), n);

  std::vector<T> outliers(h.outlier_count);
  const std::size_t outlier_off = h.codebook_size + h.huff_bytes;
  if (h.outlier_count > 0) {
    std::memcpy(outliers.data(), payload.data() + outlier_off,
                h.outlier_count * sizeof(T));
  }
  lorenzo_dequantize<T>(codes, outliers, h.dims, h.abs_eb, h.radius, out);
}

/// Per-block payload offsets (prefix sums over the block index).
struct BlockOffsets {
  std::vector<std::size_t> huff;
  std::vector<std::size_t> outlier;
};

BlockOffsets block_payload_offsets(const RawHeader& h, std::size_t elem_size) {
  BlockOffsets off;
  off.huff.resize(h.blocks.size());
  off.outlier.resize(h.blocks.size());
  std::size_t huff_cursor = h.codebook_size;
  std::size_t outlier_cursor = h.codebook_size + h.huff_bytes;
  for (std::size_t b = 0; b < h.blocks.size(); ++b) {
    off.huff[b] = huff_cursor;
    off.outlier[b] = outlier_cursor;
    huff_cursor += h.blocks[b].huff_bytes;
    outlier_cursor += h.blocks[b].outlier_count * elem_size;
  }
  return off;
}

/// Entropy-decodes one block's codes and copies out its outlier run.
template <typename T>
void decode_block_codes(const HuffmanDecoder& decoder,
                        std::span<const std::uint8_t> payload, const BlockEntry& entry,
                        std::size_t huff_off, std::size_t outlier_off, std::size_t n,
                        std::vector<std::uint32_t>& codes, std::vector<T>& outliers) {
  util::BitReader reader(payload.subspan(huff_off, entry.huff_bytes));
  codes.resize(n);
  {
    util::trace::Span span("huffman_decode", "sz", "symbols", n);
    decoder.decode_run(reader, codes.data(), n);
  }
  outliers.resize(entry.outlier_count);
  if (entry.outlier_count > 0) {
    std::memcpy(outliers.data(), payload.data() + outlier_off,
                entry.outlier_count * sizeof(T));
  }
  auto& reg = util::metrics::Registry::get();
  reg.sz_blocks_decoded.add();
  reg.sz_huffman_symbols.add(n);
}

/// The block decoder behind decompress and decompress_region (v2+):
/// decodes the blocks `region` touches into `out`, region.count()
/// elements in the region's own row-major order. `prev_region` is the
/// reference step over the same region, or empty when no needed block is
/// temporal.
///
/// Blocks are slabs along one axis, so "does block b overlap the request"
/// is a 1-D interval test along that axis. A block whose whole box lies
/// inside the region owns one contiguous run of `out` (the region then
/// spans every other axis in full) and dequantizes there in place. A
/// block the region cuts dequantizes whole — the Lorenzo stencil chains
/// through the block — into a reused per-thread staging buffer, and only
/// its share is copied out. Temporal blocks are point-wise: after the
/// (inherently sequential) entropy decode only the selected rows are
/// dequantized, against the matching rows of prev_region.
template <typename T>
void decode_blocks(const RawHeader& h, std::span<const std::uint8_t> payload,
                   const Region& region, std::span<const T> prev_region,
                   std::span<T> out, unsigned threads, bool check_crcs,
                   RegionDecodeStats& stats) {
  const HuffmanDecoder decoder = make_decoder(h, payload);
  const std::vector<BlockRange> blocks = blocks_from_index(h);
  const BlockOffsets off = block_payload_offsets(h, sizeof(T));

  struct Needed {
    std::size_t b = 0;
    Region isect;           // region ∩ block box, in field coordinates
    bool in_place = false;  // the whole box lies inside the region
  };
  std::vector<Needed> needed;
  const int axis = slowest_nonunit_axis(h.dims);
  std::size_t begin = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    Region box = Region::of(h.dims);
    box.lo[axis] = begin;
    begin += extent(blocks[b].dims, axis);
    box.hi[axis] = begin;
    const Region isect = intersect(region, box);
    if (isect.empty()) continue;
    if (h.blocks[b].predictor == Predictor::kTemporal && prev_region.empty()) {
      throw std::runtime_error("sz: temporal blob requires a reference step");
    }
    needed.push_back({b, isect, isect == box});
  }
  stats.blocks_decoded = needed.size();
  stats.used_block_index = true;

  // Mirror of the quantize-side partition (lorenzo_quantize_blocks):
  // runs of consecutive spatial blocks with identical extents, contiguous
  // data and the same placement — rounded down to the lane granularity,
  // up to lane_width() lanes — dequantize in SIMD lockstep; everything
  // else — singles, temporal blocks, the non-uniform tail — takes the
  // per-block path and all of its error semantics.
  struct Task {
    std::size_t first = 0;  // index into `needed`
    int count = 1;
  };
  std::vector<Task> tasks;
  tasks.reserve(needed.size());
  const int w = kern::lane_width();
  const int g = kern::lane_granularity();
  std::size_t scan = 0;
  while (scan < needed.size()) {
    const Needed& lead = needed[scan];
    const BlockRange& first = blocks[lead.b];
    const std::size_t bc = first.dims.count();
    int run = 0;
    if (w > 1 && h.radius <= kern::kLaneMaxRadius) {
      const int cap = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(w), needed.size() - scan));
      while (run < cap) {
        const Needed& nb = needed[scan + static_cast<std::size_t>(run)];
        const bool lockstep =
            h.blocks[nb.b].predictor == Predictor::kSpatial &&
            nb.in_place == lead.in_place && blocks[nb.b].dims == first.dims &&
            blocks[nb.b].elem_offset ==
                first.elem_offset + static_cast<std::size_t>(run) * bc;
        if (!lockstep) break;
        ++run;
      }
      run = (run / g) * g;
    }
    const int count = run >= g && run > 1 ? run : 1;
    tasks.push_back({scan, count});
    scan += static_cast<std::size_t>(count);
  }

  // Calls fn(block_offset, out_offset, len) for each contiguous stretch
  // of a block's share of the region, in ascending block order; a block
  // decoded in place is one stretch.
  const std::size_t region_lo = region_flat_lo(region, h.dims);
  const auto st = strides_of(h.dims);
  const std::size_t rd1 = region.hi[1] - region.lo[1];
  const std::size_t rd2 = region.hi[2] - region.lo[2];
  auto for_each_run = [&](const Needed& nb, auto&& fn) {
    const BlockRange& blk = blocks[nb.b];
    if (nb.in_place) {
      fn(std::size_t{0}, blk.elem_offset - region_lo, blk.dims.count());
      return;
    }
    const Region& is = nb.isect;
    for (std::size_t x = is.lo[0]; x < is.hi[0]; ++x) {
      for (std::size_t y = is.lo[1]; y < is.hi[1]; ++y) {
        fn(x * st[0] + y * st[1] + is.lo[2] - blk.elem_offset,
           ((x - region.lo[0]) * rd1 + (y - region.lo[1])) * rd2 +
               (is.lo[2] - region.lo[2]),
           is.hi[2] - is.lo[2]);
      }
    }
  };

  util::parallel_for(tasks.size(), threads, [&](std::size_t t) {
    const Task& task = tasks[t];
    const Needed& lead = needed[task.first];
    const BlockRange& blk = blocks[lead.b];
    const std::size_t bc = blk.dims.count();
    // Reused across tasks (and calls): decode_block_codes and the
    // dequantize kernels overwrite every element they hand on, so
    // retained capacity is safe and saves a multi-MB allocation +
    // zero-fill per task.
    static thread_local std::vector<std::vector<std::uint32_t>> codes;
    static thread_local std::vector<std::vector<T>> outliers;
    static thread_local std::vector<T> staging;
    if (codes.size() < static_cast<std::size_t>(task.count)) {
      codes.resize(static_cast<std::size_t>(task.count));
      outliers.resize(static_cast<std::size_t>(task.count));
    }
    const std::uint32_t* cptr[kern::kMaxLanes] = {};
    std::span<const T> optr[kern::kMaxLanes];
    for (int l = 0; l < task.count; ++l) {
      const std::size_t b = needed[task.first + static_cast<std::size_t>(l)].b;
      if (check_crcs) {
        verify_block_crc(h, payload, b, off.huff[b], off.outlier[b], sizeof(T));
      }
      decode_block_codes<T>(decoder, payload, h.blocks[b], off.huff[b], off.outlier[b],
                            bc, codes[static_cast<std::size_t>(l)],
                            outliers[static_cast<std::size_t>(l)]);
      cptr[l] = codes[static_cast<std::size_t>(l)].data();
      optr[l] = outliers[static_cast<std::size_t>(l)];
    }
    util::trace::Span span("dequantize", "sz", "elems",
                           bc * static_cast<std::size_t>(task.count));

    if (h.blocks[lead.b].predictor == Predictor::kTemporal) {
      // Outliers are stored in whole-block order; skipping a span is just
      // counting its code-0 markers. The tail walk pins the outlier count
      // so a corrupt substream fails loudly instead of mis-scattering.
      const std::vector<std::uint32_t>& c = codes[0];
      std::size_t cursor = 0, k = 0;
      auto skip_to = [&](std::size_t target) {
        k += static_cast<std::size_t>(
            std::count(c.begin() + static_cast<std::ptrdiff_t>(cursor),
                       c.begin() + static_cast<std::ptrdiff_t>(target), 0u));
        cursor = target;
      };
      for_each_run(lead, [&](std::size_t l, std::size_t o, std::size_t len) {
        skip_to(l);
        if (!kern::temporal_dequant_range<T>(c.data() + l, prev_region.data() + o,
                                             out.data() + o, len, optr[0], k, h.abs_eb,
                                             h.radius)) {
          throw std::runtime_error("sz: outlier underrun");
        }
        cursor = l + len;
      });
      skip_to(c.size());
      if (k != optr[0].size()) throw std::runtime_error("sz: outlier overrun");
      return;
    }

    const std::size_t span_elems = bc * static_cast<std::size_t>(task.count);
    if (!lead.in_place && staging.size() < span_elems) staging.resize(span_elems);
    T* const dst =
        lead.in_place ? out.data() + (blk.elem_offset - region_lo) : staging.data();
    if (task.count == 1) {
      lorenzo_dequantize<T>(codes[0], optr[0], blk.dims, h.abs_eb, h.radius,
                            std::span<T>(dst, bc));
    } else {
      kern::DequantizeBatch<T> batch;
      batch.codes = cptr;
      batch.outliers = optr;
      batch.bc = bc;
      batch.dims = blk.dims;
      batch.eb = h.abs_eb;
      batch.radius = h.radius;
      batch.out = dst;
      batch.lanes = task.count;
      kern::dequantize_lanes<T>(batch);
    }
    if (lead.in_place) return;
    for (int l = 0; l < task.count; ++l) {
      const T* src = dst + static_cast<std::size_t>(l) * bc;
      for_each_run(needed[task.first + static_cast<std::size_t>(l)],
                   [&](std::size_t b_off, std::size_t o, std::size_t len) {
                     std::memcpy(out.data() + o, src + b_off, len * sizeof(T));
                   });
    }
  });
}

/// Resolves the stored section into the raw (pre-LZ) payload and checks
/// the three payload sections add up; `buf` owns the bytes when an LZ
/// expansion was needed.
std::span<const std::uint8_t> prepare_payload(const RawHeader& h,
                                              std::span<const std::uint8_t> blob,
                                              std::size_t elem_size,
                                              std::vector<std::uint8_t>& buf) {
  std::span<const std::uint8_t> payload = blob.subspan(h.header_end);
  if (h.version >= kVersionV4) {
    if (payload.size() < h.stored_size) throw std::runtime_error("sz: truncated payload");
    payload = payload.subspan(0, h.stored_size);
  }
  if (h.flags & kFlagLz) {
    // Plausibility cap before the expansion buffer is sized: one LZ input
    // byte cannot expand into more than kMaxLzExpansion output bytes, so
    // a crafted payload_raw_size can never drive a huge allocation.
    std::uint64_t expand_cap;
    if (__builtin_mul_overflow(static_cast<std::uint64_t>(payload.size()),
                               kMaxLzExpansion, &expand_cap) ||
        __builtin_add_overflow(expand_cap, kCapSlackBytes, &expand_cap) ||
        h.payload_raw_size > expand_cap) {
      throw std::runtime_error("sz: implausible LZ expansion");
    }
    util::trace::Span span("lz_expand", "sz", "bytes", payload.size());
    buf = lz_decompress(payload, h.payload_raw_size);
    payload = buf;
  }
  validate_payload_extent(h, elem_size, payload.size());
  return payload;
}

/// Decodes `region`, a box in `coords`, of a parsed blob into `out` (the
/// whole field is just the region that covers it), or — when `owned` is
/// non-null — into *owned, sized only once the request has validated.
/// v1 has one monolithic Huffman stream, and a region in extents other
/// than the stored ones cannot map onto blocks: both decode the whole
/// field and slice the request out in the caller's coordinates.
template <typename T>
void decode_region_into(std::span<const std::uint8_t> blob, const RawHeader& h,
                        const Region& region, const Dims& coords,
                        std::span<const T> prev_region, std::vector<T>* owned,
                        std::span<T> out, unsigned threads, VerifyMode verify,
                        RegionDecodeStats* stats) {
  if (element_count(coords) != element_count(h.dims)) {
    throw std::invalid_argument("sz: region extents != stored element count");
  }
  validate_region(region, coords);
  if (!prev_region.empty() && prev_region.size() != region.count()) {
    throw std::invalid_argument("sz: reference region size != region element count");
  }
  if (owned != nullptr) {
    owned->resize(region.count());
    out = *owned;
  } else if (out.size() != region.count()) {
    throw std::invalid_argument("sz: output size != region element count");
  }
  verify_before_decode(h, blob, verify);
  const bool check_blocks = h.version >= kVersionV4 && verify == VerifyMode::kBlock;
  RegionDecodeStats local;
  local.blocks_total = h.version == kVersionV1 ? 1 : h.blocks.size();
  if (!region.empty()) {
    std::vector<std::uint8_t> payload_buf;
    const std::span<const std::uint8_t> payload =
        prepare_payload(h, blob, sizeof(T), payload_buf);
    if (check_blocks) verify_codebook_crc(h, payload);
    const Region whole = Region::of(h.dims);
    if (h.version != kVersionV1 && coords == h.dims) {
      decode_blocks<T>(h, payload, region, prev_region, out, threads, check_blocks, local);
    } else {
      const bool sliced = !(coords == h.dims && region == whole);
      std::vector<T> full(sliced ? element_count(h.dims) : 0);
      const std::span<T> dst = sliced ? std::span<T>(full) : out;
      if (h.version == kVersionV1) {
        decode_v1<T>(h, payload, dst);
        local.blocks_decoded = 1;
      } else {
        decode_blocks<T>(h, payload, whole, std::span<const T>{}, dst, threads,
                         check_blocks, local);
      }
      local.used_block_index = false;
      if (sliced) {
        for_each_region_row(region, coords, [&](std::size_t g, std::size_t len,
                                                std::size_t o) {
          std::memcpy(out.data() + o, full.data() + g, len * sizeof(T));
        });
      }
    }
  }
  if (stats != nullptr) *stats = local;
}

/// Parses `blob` for one of the typed entry points.
template <typename T>
RawHeader parse_typed(std::span<const std::uint8_t> blob) {
  RawHeader h = parse_header(blob);
  if (h.dtype != dtype_of<T>()) {
    throw std::runtime_error("sz: element type mismatch");
  }
  if (element_count(h.dims) == 0) throw std::runtime_error("sz: empty dims");
  return h;
}

}  // namespace

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> blob, Dims* dims_out,
                          unsigned threads, VerifyMode verify) {
  return decompress<T>(blob, std::span<const T>{}, dims_out, threads, verify);
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> blob, std::span<const T> prev,
                          Dims* dims_out, unsigned threads, VerifyMode verify) {
  util::trace::Span decompress_span("decompress", "sz", "bytes", blob.size());
  const RawHeader h = parse_typed<T>(blob);
  if (!prev.empty() && prev.size() != element_count(h.dims)) {
    throw std::invalid_argument("sz: reference step size != stored element count");
  }
  std::vector<T> out;
  decode_region_into<T>(blob, h, Region::of(h.dims), h.dims, prev, &out, {}, threads,
                        verify, nullptr);
  if (dims_out != nullptr) *dims_out = h.dims;
  return out;
}

template <typename T>
std::vector<T> decompress_region(std::span<const std::uint8_t> blob, const Region& region,
                                 unsigned threads, RegionDecodeStats* stats,
                                 VerifyMode verify) {
  return decompress_region<T>(blob, region, std::span<const T>{}, threads, stats, verify);
}

template <typename T>
std::vector<T> decompress_region(std::span<const std::uint8_t> blob, const Region& region,
                                 std::span<const T> prev_region, unsigned threads,
                                 RegionDecodeStats* stats, VerifyMode verify) {
  util::trace::Span region_span("decompress_region", "sz", "bytes", blob.size());
  const RawHeader h = parse_typed<T>(blob);
  std::vector<T> out;
  decode_region_into<T>(blob, h, region, h.dims, prev_region, &out, {}, threads, verify,
                        stats);
  return out;
}

template <typename T>
void decompress_region_into(std::span<const std::uint8_t> blob, const Region& region,
                            std::span<T> out, unsigned threads, RegionDecodeStats* stats,
                            VerifyMode verify, const Dims* region_dims) {
  util::trace::Span region_span("decompress_region", "sz", "bytes", blob.size());
  const RawHeader h = parse_typed<T>(blob);
  decode_region_into<T>(blob, h, region, region_dims != nullptr ? *region_dims : h.dims,
                        std::span<const T>{}, nullptr, out, threads, verify, stats);
}

std::vector<BlockInfo> inspect_blocks(std::span<const std::uint8_t> blob) {
  const RawHeader h = parse_header(blob);
  std::vector<BlockInfo> out;
  if (h.version == kVersionV1) {
    out.push_back({element_count(h.dims), h.huff_bytes, h.outlier_count,
                   Predictor::kSpatial});
    return out;
  }
  out.reserve(h.blocks.size());
  for (const BlockEntry& e : h.blocks) {
    out.push_back({e.elem_count, e.huff_bytes, e.outlier_count, e.predictor});
  }
  return out;
}

HeaderInfo inspect(std::span<const std::uint8_t> blob) {
  const RawHeader h = parse_header(blob);
  HeaderInfo info;
  info.dtype = h.dtype;
  info.dims = h.dims;
  info.abs_error_bound = h.abs_eb;
  info.radius = h.radius;
  info.outlier_count = h.outlier_count;
  info.lz_applied = (h.flags & kFlagLz) != 0;
  info.payload_raw_size = h.payload_raw_size;
  info.header_size = h.header_end;
  info.version = h.version;
  info.block_count =
      h.version == kVersionV1 ? 1 : static_cast<std::uint32_t>(h.blocks.size());
  for (const BlockEntry& e : h.blocks) {
    info.temporal_blocks += e.predictor == Predictor::kTemporal ? 1 : 0;
  }
  info.checksummed = h.version >= kVersionV4;
  return info;
}

BlobVerifyReport verify_blob(std::span<const std::uint8_t> blob, bool deep) {
  BlobVerifyReport r;
  RawHeader h;
  try {
    h = parse_header(blob);
  } catch (const std::exception& e) {
    r.detail = e.what();
    return r;
  }
  r.parsed = true;
  r.version = h.version;
  r.checksummed = h.version >= kVersionV4;
  const std::size_t esize = h.elem_size();
  // A failed stored CRC is only deferred (not returned) in deep mode so
  // the per-block pass below can localize the damage first.
  std::string stored_fail;
  try {
    if (r.checksummed) {
      verify_header_crc(h, blob);
      try {
        verify_stored_crc(h, blob);  // includes the truncation check
      } catch (const std::exception& e) {
        if (!deep) {
          r.detail = e.what();
          return r;
        }
        stored_fail = e.what();
      }
    } else if (!(h.flags & kFlagLz)) {
      // Legacy blobs carry no CRCs; check what structure allows — the
      // stored extent against the actual bytes. (LZ blobs validate their
      // length only on expansion, which scrub's cheap pass skips.)
      validate_payload_extent(h, esize, blob.size() - h.header_end);
    }
  } catch (const std::exception& e) {
    r.detail = e.what();
    return r;
  }
  if (deep) {
    try {
      // Expanding the LZ stage also validates legacy (pre-v4) LZ blobs,
      // whose stored extent the cheap pass cannot check without it.
      std::vector<std::uint8_t> buf;
      const std::span<const std::uint8_t> payload = prepare_payload(h, blob, esize, buf);
      if (r.checksummed) {
        try {
          verify_codebook_crc(h, payload);
        } catch (const std::exception& e) {
          r.detail = e.what();
          return r;
        }
        const BlockOffsets off = block_payload_offsets(h, esize);
        for (std::size_t b = 0; b < h.blocks.size(); ++b) {
          try {
            verify_block_crc(h, payload, b, off.huff[b], off.outlier[b], esize);
          } catch (const std::exception& e) {
            r.damaged_blocks.push_back(static_cast<std::uint32_t>(b));
            if (r.detail.empty()) r.detail = e.what();
          }
        }
        if (!r.damaged_blocks.empty()) return r;
      }
    } catch (const std::exception& e) {
      r.detail = e.what();
      return r;
    }
  }
  if (!stored_fail.empty()) {
    // Damage in the stored (LZ) stream that no block CRC maps back to —
    // e.g. a flipped match offset whose expansion happens to reproduce
    // the same bytes. Still corruption; still reported.
    r.detail = stored_fail;
    return r;
  }
  r.ok = true;
  return r;
}

template double resolve_error_bound<float>(std::span<const float>, const Params&);
template double resolve_error_bound<double>(std::span<const double>, const Params&);
template std::vector<std::uint8_t> compress<float>(std::span<const float>, const Dims&,
                                                   const Params&);
template std::vector<std::uint8_t> compress<double>(std::span<const double>, const Dims&,
                                                    const Params&);
template std::vector<std::uint8_t> compress<float>(std::span<const float>, const Dims&,
                                                   const Params&, std::span<const float>,
                                                   std::vector<float>*);
template std::vector<std::uint8_t> compress<double>(std::span<const double>, const Dims&,
                                                    const Params&, std::span<const double>,
                                                    std::vector<double>*);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>, Dims*,
                                              unsigned, VerifyMode);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>, Dims*,
                                                unsigned, VerifyMode);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              std::span<const float>, Dims*, unsigned,
                                              VerifyMode);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>,
                                                std::span<const double>, Dims*, unsigned,
                                                VerifyMode);
template std::vector<float> decompress_region<float>(std::span<const std::uint8_t>,
                                                     const Region&, unsigned,
                                                     RegionDecodeStats*, VerifyMode);
template std::vector<double> decompress_region<double>(std::span<const std::uint8_t>,
                                                       const Region&, unsigned,
                                                       RegionDecodeStats*, VerifyMode);
template std::vector<float> decompress_region<float>(std::span<const std::uint8_t>,
                                                     const Region&, std::span<const float>,
                                                     unsigned, RegionDecodeStats*,
                                                     VerifyMode);
template std::vector<double> decompress_region<double>(std::span<const std::uint8_t>,
                                                       const Region&,
                                                       std::span<const double>, unsigned,
                                                       RegionDecodeStats*, VerifyMode);
template void decompress_region_into<float>(std::span<const std::uint8_t>, const Region&,
                                            std::span<float>, unsigned, RegionDecodeStats*,
                                            VerifyMode, const Dims*);
template void decompress_region_into<double>(std::span<const std::uint8_t>, const Region&,
                                             std::span<double>, unsigned,
                                             RegionDecodeStats*, VerifyMode, const Dims*);

}  // namespace pcw::sz

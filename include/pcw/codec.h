// pcw public API — codecs and the codec registry.
//
// Every stored blob names its codec by a numeric filter id (the on-disk
// FilterId). The library registers its built-ins (0 = none, 1 = sz,
// 2 = zfp); out-of-tree codecs implement pcw::Codec, register a factory
// under a fresh id, and from then on the h5 layer resolves them through
// the registry exactly like the built-ins — writing and reading datasets
// with a custom codec never touches internal headers.
//
// The blob-level free functions (encode_blob / decode_blob / inspect_*)
// are the standalone-compressor surface the pcwz CLI is built on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pcw/status.h"
#include "pcw/types.h"

namespace pcw {

// Built-in filter ids (stable on-disk values).
inline constexpr std::uint32_t kCodecNone = 0;
inline constexpr std::uint32_t kCodecSz = 1;
inline constexpr std::uint32_t kCodecZfp = 2;

/// Capability metadata recorded at registration and surfaced through
/// registered_codecs()/find_codec() (how tools describe codecs they have
/// never heard of). The flags document the codec's container, they do
/// not switch library behavior: sparse region decode is driven by the
/// codec's own decode machinery (codecs without it are decoded whole and
/// sliced — always correct), and series chains require the built-in sz
/// temporal container regardless of what a custom codec declares.
struct CodecCaps {
  bool supports_decode_region = false;
  bool supports_temporal = false;
};

/// Extension interface for out-of-tree codecs. Implementations may throw
/// (std::runtime_error on corrupt blobs, std::invalid_argument on bad
/// requests); the library converts at its boundary — a registered codec's
/// exceptions never cross the pcw:: surface.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Encodes `raw` element bytes (field.elements() elements of
  /// field.dtype with extents field.dims) to a self-describing blob.
  virtual std::vector<std::uint8_t> encode(const FieldView& field) const = 0;

  /// Decodes a blob back to exactly `expect_elems` elements of `dtype`.
  virtual std::vector<std::uint8_t> decode(std::span<const std::uint8_t> blob,
                                           DType dtype,
                                           std::uint64_t expect_elems) const = 0;
};

using CodecFactory = std::function<std::unique_ptr<Codec>()>;

/// Registers an out-of-tree codec under `filter_id`. Fails with
/// kAlreadyExists when the id is taken (built-ins included) and
/// kInvalidArgument on an empty name or factory. Thread-safe; typically
/// called once at startup.
Status register_codec(std::uint32_t filter_id, std::string name, CodecCaps caps,
                      CodecFactory factory);

struct CodecInfo {
  std::uint32_t filter_id = 0;
  std::string name;
  CodecCaps caps;
  bool builtin = false;
};

/// Every registered codec, built-ins first, then customs by id.
std::vector<CodecInfo> registered_codecs();

/// Lookup by id; kNotFound names the id and the known set.
Result<CodecInfo> find_codec(std::uint32_t filter_id);

// ---- per-field codec selection --------------------------------------------

enum class ErrorBoundMode : std::uint8_t { kAbsolute = 0, kRelative = 1 };

/// Which codec a field is stored with, plus its knobs. Builder-style
/// setters chain: CodecOptions().with_error_bound(1e-3).with_relative().
/// Only the knobs the selected codec understands apply (sz reads the
/// error-bound family, zfp reads rate_bits, customs read none).
struct CodecOptions {
  std::uint32_t filter_id = kCodecSz;
  // sz knobs:
  ErrorBoundMode mode = ErrorBoundMode::kAbsolute;
  double error_bound = 1e-3;
  std::uint32_t radius = 32768;
  /// Code runs of zero-residual codes as Huffman run tokens (container
  /// v5), sz's sub-1-bit stage; false codes every element separately.
  bool lossless = true;
  // zfp knob:
  std::uint32_t rate_bits = 8;

  CodecOptions& with_codec(std::uint32_t id) { filter_id = id; return *this; }
  CodecOptions& with_error_bound(double eb) { error_bound = eb; return *this; }
  CodecOptions& with_relative() { mode = ErrorBoundMode::kRelative; return *this; }
  CodecOptions& with_radius(std::uint32_t r) { radius = r; return *this; }
  CodecOptions& with_lossless(bool on) { lossless = on; return *this; }
  CodecOptions& with_zfp_rate(std::uint32_t bits) {
    filter_id = kCodecZfp;
    rate_bits = bits;
    return *this;
  }

  static CodecOptions none() { return CodecOptions{}.with_codec(kCodecNone); }
};

// ---- standalone blob surface (what pcwz is built on) ----------------------

/// Upper bound on any supported container's header + block index size:
/// the leading kMaxBlobHeaderBytes of a blob always suffice for
/// inspect_blob()/inspect_blob_blocks(), so tools can summarize huge
/// datasets with header-sized reads.
inline constexpr std::size_t kMaxBlobHeaderBytes = 2048;

/// Parsed blob summary. Codec-specific fields are zero where they do not
/// apply (a zfp blob has no quantizer radius, etc.).
struct BlobInfo {
  std::uint32_t filter_id = 0;
  std::string codec;  // registered codec name ("sz", "zfp", ...)
  DType dtype = DType::kFloat32;
  Dims dims;
  // sz container details:
  double abs_error_bound = 0.0;
  std::uint32_t radius = 0;
  std::uint64_t outlier_count = 0;
  /// Legacy (v1–v4) blobs only: the payload is stored LZ-compressed.
  bool lz_applied = false;
  /// Container v5: run tokens code the zero-residual runs.
  bool run_tokens = false;
  std::uint32_t version = 0;
  std::uint32_t block_count = 0;
  /// Blocks per predictor: lattice (the current writer's spatial
  /// predictor) and temporal; the rest of block_count are classic stencil
  /// blocks from earlier writers.
  std::uint32_t lattice_blocks = 0;
  std::uint32_t temporal_blocks = 0;
  /// True for sz container v4 and later: the blob carries CRC32C checksums.
  bool checksummed = false;
};

/// Which stage codes a blob's sub-1-bit structure: "run tokens" (v5),
/// "lz" (legacy LZ payload) or "none".
inline const char* sub_bit_stage(const BlobInfo& info) {
  return info.run_tokens ? "run tokens" : info.lz_applied ? "lz" : "none";
}

/// One per-block index entry of an sz blob (the marginal cost of decoding
/// that block in a partial read).
struct BlobBlockInfo {
  std::uint64_t elem_count = 0;
  std::uint64_t stored_bytes = 0;
  bool temporal = false;
  bool lattice = false;  // neither: a classic stencil block
};

/// Bits per element for a blob of `compressed_bytes` covering
/// `element_count` values.
inline double bit_rate(std::size_t compressed_bytes, std::size_t element_count) {
  return element_count == 0 ? 0.0
                            : 8.0 * static_cast<double>(compressed_bytes) /
                                  static_cast<double>(element_count);
}

/// Compresses one field into a standalone blob with the selected codec.
Result<std::vector<std::uint8_t>> encode_blob(const FieldView& field,
                                              const CodecOptions& options);

/// A decoded standalone blob: the element bytes plus what the container
/// said about them.
struct DecodedBlob {
  DType dtype = DType::kFloat32;
  Dims dims;
  std::vector<std::uint8_t> bytes;

  template <typename T>
  std::vector<T> as() const {
    return bytes_as<T>(bytes);
  }
};

/// Decompresses a standalone blob, sniffing the codec from the container
/// magic. Supports the built-in self-describing containers (sz and zfp);
/// blobs from registered custom codecs are not self-describing — decode
/// those through the Codec interface with their known id and element
/// count. `prev` supplies the reconstructed reference step for sz
/// temporal blobs (empty view for spatial blobs; required —
/// kFailedPrecondition — for temporal ones).
Result<DecodedBlob> decode_blob(std::span<const std::uint8_t> blob,
                                const FieldView& prev = {});

/// Parses a blob's container header without touching the payload
/// (built-in self-describing containers only, like decode_blob).
Result<BlobInfo> inspect_blob(std::span<const std::uint8_t> blob);

/// The per-block index of an sz blob (one synthetic whole-field entry for
/// v1 containers); kInvalidArgument for non-sz blobs.
Result<std::vector<BlobBlockInfo>> inspect_blob_blocks(std::span<const std::uint8_t> blob);

/// verify_blob() outcome — a non-throwing damage report (`pcwz verify`).
struct BlobVerifyReport {
  bool parsed = false;        // container header parsed and consistent
  std::uint32_t version = 0;  // container version (0 when unparseable)
  bool checksummed = false;   // the blob carries CRCs to check (sz v4)
  /// Parsed, structurally sound, and every applicable checksum matched.
  /// For containers without checksums this is structural consistency only.
  bool ok = false;
  /// Deep mode, checksummed sz blobs: indices of blocks whose CRC failed.
  std::vector<std::uint32_t> damaged_blocks;
  std::string detail;  // first failure, human-readable ("" when ok)
};

/// Verifies a standalone blob without decoding it and without failing:
/// damage comes back in the report, never as an error Status. The cheap
/// pass checks structure plus (checksummed sz blobs) the header and
/// stored-payload CRCs — enough to detect any corruption. `deep`
/// additionally checks the codebook and every per-block CRC, localizing
/// damage to block indices. Non-sz containers get a structural parse only.
BlobVerifyReport verify_blob(std::span<const std::uint8_t> blob, bool deep = false);

}  // namespace pcw

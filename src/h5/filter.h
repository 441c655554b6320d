// h5lite filter pipeline (HDF5 dynamically-loaded-filter analog).
//
// A Filter transforms a partition's raw element bytes to a stored blob
// and back. SzFilter is the H5Z-SZ counterpart: each partition is
// compressed independently with pcw::sz, and the stored blob is
// self-describing (dims + error bound live in the sz container header).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "h5/format.h"
#include "sz/compressor.h"
#include "zfp/zfp.h"

namespace pcw::h5 {

class Filter {
 public:
  virtual ~Filter() = default;

  virtual FilterId id() const = 0;

  /// Encodes one partition. `raw` holds elem-count elements of `dtype`
  /// with logical extents `dims` (dims.count() == element count).
  virtual std::vector<std::uint8_t> encode(std::span<const std::uint8_t> raw,
                                           DataType dtype,
                                           const sz::Dims& dims) const = 0;

  /// Decodes one stored blob back to exactly `expect_elems` elements of
  /// `dtype`; throws on mismatch or corruption.
  virtual std::vector<std::uint8_t> decode(std::span<const std::uint8_t> blob,
                                           DataType dtype,
                                           std::uint64_t expect_elems) const = 0;

  /// Decodes only `region` (half-open box in the partition's `local_dims`
  /// coordinates) into `out`, which holds exactly region.count() elements
  /// of `dtype` in the region's own row-major order (aligned for the
  /// element type). The base
  /// implementation decodes everything and slices; SzFilter overrides it
  /// with a block-indexed partial decode. `stats`, when non-null, reports
  /// how much of the blob was decoded.
  virtual void decode_region(std::span<const std::uint8_t> blob, DataType dtype,
                             const sz::Dims& local_dims, const sz::Region& region,
                             unsigned threads, sz::RegionDecodeStats* stats,
                             std::span<std::uint8_t> out) const;

  /// The logical extents a self-describing blob carries, when the codec's
  /// container records them (what unlocks block-indexed partial decode in
  /// the blob's own coordinate system). nullopt for codecs whose blobs
  /// are not self-describing — callers then slice in flat order.
  virtual std::optional<sz::Dims> stored_dims(std::span<const std::uint8_t> blob) const {
    (void)blob;
    return std::nullopt;
  }
};

/// Identity filter (uncompressed partitioned layout).
class NullFilter final : public Filter {
 public:
  FilterId id() const override { return FilterId::kNone; }
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> raw, DataType,
                                   const sz::Dims&) const override {
    return {raw.begin(), raw.end()};
  }
  std::vector<std::uint8_t> decode(std::span<const std::uint8_t> blob, DataType dtype,
                                   std::uint64_t expect_elems) const override;
};

/// Error-bounded lossy filter backed by pcw::sz (H5Z-SZ analog).
class SzFilter final : public Filter {
 public:
  explicit SzFilter(sz::Params params) : params_(params) {}

  FilterId id() const override { return FilterId::kSz; }
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> raw, DataType dtype,
                                   const sz::Dims& dims) const override;
  std::vector<std::uint8_t> decode(std::span<const std::uint8_t> blob, DataType dtype,
                                   std::uint64_t expect_elems) const override;
  /// Block-indexed partial decode straight into `out` via
  /// sz::decompress_region_into when the container extents match
  /// `local_dims`; otherwise sz's full-decode fallback keeps mismatched
  /// metadata readable. `local_dims` rides down to the one header parse.
  void decode_region(std::span<const std::uint8_t> blob, DataType dtype,
                     const sz::Dims& local_dims, const sz::Region& region,
                     unsigned threads, sz::RegionDecodeStats* stats,
                     std::span<std::uint8_t> out) const override;
  std::optional<sz::Dims> stored_dims(std::span<const std::uint8_t> blob) const override;

  const sz::Params& params() const { return params_; }

 private:
  sz::Params params_;
};

/// Fixed-rate lossy filter backed by pcw::zfp (H5Z-ZFP analog). Fixed
/// rate means encode() output size is a pure function of the element
/// count — the property the no-extra-space ablation exploits.
class ZfpFilter final : public Filter {
 public:
  explicit ZfpFilter(zfp::Params params) : params_(params) {}

  FilterId id() const override { return FilterId::kZfp; }
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> raw, DataType dtype,
                                   const sz::Dims& dims) const override;
  std::vector<std::uint8_t> decode(std::span<const std::uint8_t> blob, DataType dtype,
                                   std::uint64_t expect_elems) const override;

  const zfp::Params& params() const { return params_; }

 private:
  zfp::Params params_;
};

/// Factory keyed by the on-disk FilterId, resolved through the
/// CodecRegistry — registered out-of-tree codecs instantiate here exactly
/// like the built-ins. Unknown ids throw std::invalid_argument naming the
/// registered set.
std::unique_ptr<Filter> make_filter(FilterId id, const sz::Params& sz_params = {},
                                    const zfp::Params& zfp_params = {});

}  // namespace pcw::h5

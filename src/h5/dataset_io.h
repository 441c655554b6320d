// High-level dataset I/O: the two *baseline* write paths the paper
// compares against, plus the one read path every reader uses.
//
//   * write_contiguous     — "original non-compression solution": every
//     rank writes its slice independently at a statically computable
//     offset (sizes are known a priori, no data-dependent sync).
//   * write_filtered_collective — "previous compression-filter solution"
//     (H5Z-SZ): every rank compresses, compressed sizes are exchanged,
//     offsets derived, then data lands collectively. The compress ->
//     size-exchange -> write ordering is the serialization bottleneck the
//     paper removes.
//
// The paper's own predictive/overlapped path lives in pcw::core; it uses
// the File primitives directly.
//
// Reads plan first (plan_region_selection: metadata only), then run
// read_selection: per partition, pread the payload on the calling thread
// and decode it straight into the caller's buffer. A whole-dataset read
// is the region Region::of(global_dims).
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "h5/file.h"
#include "h5/filter.h"
#include "mpi/comm.h"
#include "sz/dims.h"

namespace pcw::h5 {

/// Phase timings measured inside the collective filter path, so benches
/// can reproduce the paper's stacked-bar breakdowns (Fig. 16/17).
struct FilterWriteStats {
  double compress_seconds = 0.0;
  double exchange_seconds = 0.0;   // allgather of compressed sizes
  double write_seconds = 0.0;      // collective write incl. final barrier
  std::uint64_t compressed_bytes = 0;   // this rank's partition
};

/// Non-compression baseline. `local` is this rank's slice (flattened);
/// slices are concatenated in rank order to form the global array of
/// `global_dims.count()` elements. Independent writes, one barrier pair
/// around metadata registration.
template <typename T>
void write_contiguous(mpi::Comm& comm, File& file, const std::string& name,
                      std::span<const T> local, const sz::Dims& global_dims);

/// H5Z-SZ-style baseline: compress with `filter`, exchange sizes, write
/// collectively. `local_dims` describes this rank's slice extents (used
/// by the SZ predictor). Returns this rank's timing breakdown.
template <typename T>
FilterWriteStats write_filtered_collective(mpi::Comm& comm, File& file,
                                           const std::string& name,
                                           std::span<const T> local,
                                           const sz::Dims& local_dims,
                                           const sz::Dims& global_dims,
                                           const Filter& filter);

/// No bound on read_partition_payload: the whole stored payload.
inline constexpr std::uint64_t kWholePayload = ~std::uint64_t{0};

/// Reads the leading min(max_bytes, actual_bytes) bytes of one partition's
/// stored payload: the slot, then the overflow tail when the payload
/// spills past it. Throws "h5: partition payload size mismatch" when
/// slot and overflow do not add up to the partition's actual size.
std::vector<std::uint8_t> read_partition_payload(const File& file,
                                                 const PartitionRecord& part,
                                                 std::uint64_t max_bytes = kWholePayload);

// ---- region (hyperslab) reads ---------------------------------------------
//
// A Region selects a half-open box of the dataset's global extents,
// interpreted over the flattened global element order (partitions
// concatenated by elem_offset) — i.e. a region read is always byte-
// identical to slicing the whole dataset, each partition decoded whole.
// For slab-decomposed writes that order coincides with the spatial
// row-major global box; see docs/read_path.md for the non-slab caveat.

/// One contiguous run of selected elements, already clipped to its
/// partition: a global-flat interval plus where it lands in the region's
/// own row-major output buffer.
struct RowSegment {
  std::uint64_t flat_lo = 0;     // global flat element index
  std::uint64_t len = 0;         // elements
  std::uint64_t out_offset = 0;  // element offset into the region buffer
};

/// Sentinel part_index for a kContiguous dataset's single pseudo-
/// partition (there is no PartitionRecord to point at).
inline constexpr std::size_t kContiguousSelection = static_cast<std::size_t>(-1);

/// One partition's share of a region selection.
struct PartitionSelection {
  std::size_t part_index = kContiguousSelection;  // into desc.partitions
  std::uint64_t flat_lo = 0, flat_hi = 0;         // hull of the segments
  std::vector<RowSegment> segments;
};

/// A planned region read: which partitions contribute which element runs.
/// Pure metadata work — planning never touches payload bytes, so every
/// request is validated before the first pread.
struct RegionSelection {
  sz::Region region;           // the validated request
  std::uint64_t elements = 0;  // region.count()
  std::size_t partitions_total = 0;
  std::vector<PartitionSelection> parts;  // only partitions with overlap
};

/// Aggregated cost accounting for a region read.
struct RegionReadStats {
  std::uint64_t payload_bytes = 0;     // stored bytes fetched
  std::uint64_t partitions_total = 0;  // partitions in the dataset
  std::uint64_t partitions_read = 0;   // partitions that overlapped
  std::uint64_t blocks_total = 0;      // sz blocks in the read partitions
  std::uint64_t blocks_decoded = 0;    // sz blocks actually decoded
  double read_seconds = 0.0;           // blocked in payload preads
  double decode_seconds = 0.0;         // decode + scatter
};

/// Plans `region` against a dataset: validates the request and clips the
/// selected rows to partition boundaries. Throws std::invalid_argument on
/// inverted or out-of-bounds regions.
RegionSelection plan_region_selection(const DatasetDesc& desc, const sz::Region& region);

/// Stored payload bytes executing `sel` will fetch.
std::uint64_t selection_payload_bytes(const DatasetDesc& desc, const RegionSelection& sel);

/// Fetches one planned partition's stored payload with pread on the
/// calling thread (a contiguous pseudo-partition reads only its hull).
/// The one fetch every read path uses.
std::vector<std::uint8_t> read_selection_payload(const File& file,
                                                 const DatasetDesc& desc,
                                                 const PartitionSelection& ps);

/// The box one partition's selection decodes over: the partition's local
/// extents, the smallest box of them covering the selected hull (itself
/// one contiguous flat range), and the global flat index of its first
/// element.
struct DecodeBox {
  sz::Dims local_dims;
  sz::Region cover;
  std::uint64_t flat_lo = 0;
};

/// Derives `ps`'s decode box from the extents the partition's blob stores
/// (nullopt: the codec stores none, and the partition is sliced in flat
/// {1,1,n} order). Returns nullopt when the stored extents disagree with
/// the partition's element count.
std::optional<DecodeBox> decode_box(const PartitionRecord& part,
                                    const PartitionSelection& ps,
                                    const std::optional<sz::Dims>& stored);

/// Copies `ps`'s segments out of `decoded`, the values of `box.cover`,
/// into their places in the region buffer `out`.
template <typename T>
void scatter_rows(const PartitionSelection& ps, const DecodeBox& box,
                  std::span<const T> decoded, std::span<T> out) {
  for (const RowSegment& seg : ps.segments) {
    std::memcpy(out.data() + seg.out_offset, decoded.data() + (seg.flat_lo - box.flat_lo),
                seg.len * sizeof(T));
  }
}

/// Executes a planned selection into `out` (sel.elements elements): per
/// partition, fetch its payload (read_selection_payload), then decode it.
/// For sz partitions only the blocks overlapping the selection are
/// decoded, fanned out across `threads`; `verify` sets the checksum depth
/// applied to v4 containers. `stats`, when non-null, is accumulated into.
template <typename T>
void read_selection(const File& file, const DatasetDesc& desc, const RegionSelection& sel,
                    unsigned threads, sz::VerifyMode verify, std::span<T> out,
                    RegionReadStats* stats);

/// Reads one hyperslab of a dataset: plan_region_selection, then
/// read_selection. `sz_params.threads` fans the block decode out.
template <typename T>
std::vector<T> read_region(const File& file, const std::string& name,
                           const sz::Region& region, const sz::Params& sz_params = {},
                           RegionReadStats* stats = nullptr);

}  // namespace pcw::h5

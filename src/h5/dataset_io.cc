#include "h5/dataset_io.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "sz/compressor.h"
#include "util/timer.h"

namespace pcw::h5 {
namespace {

// dtype_of<T>() comes from h5/format.h (via dataset_io.h).

std::span<const std::uint8_t> as_bytes_span(const void* p, std::size_t bytes) {
  return {static_cast<const std::uint8_t*>(p), bytes};
}

/// Rethrows the in-flight exception with the failing dataset/partition
/// prepended, preserving the exception type callers dispatch on. Filter
/// decode errors used to surface as bare size-mismatch text with no
/// location; every decode site below funnels through here.
[[noreturn]] void rethrow_with_location(const std::string& dataset, std::size_t part) {
  const std::string where =
      "dataset '" + dataset + "' partition " + std::to_string(part) + ": ";
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(where + e.what());
  } catch (const std::exception& e) {
    throw std::runtime_error(where + e.what());
  }
}

}  // namespace

template <typename T>
void write_contiguous(mpi::Comm& comm, File& file, const std::string& name,
                      std::span<const T> local, const sz::Dims& global_dims) {
  // Element counts are statically known: one allgather of counts (this is
  // not data-dependent — it mirrors the hyperslab selection an HDF5 app
  // declares up front), then fully independent writes.
  const auto counts = comm.allgather<std::uint64_t>(local.size());
  const std::uint64_t total_elems =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  if (total_elems != global_dims.count()) {
    throw std::invalid_argument("h5: contiguous slice counts != global dims");
  }
  std::uint64_t my_elem_offset = 0;
  for (int r = 0; r < comm.rank(); ++r) my_elem_offset += counts[static_cast<std::size_t>(r)];

  const std::uint64_t base = file.alloc_collective(comm, total_elems * sizeof(T));
  file.pwrite(base + my_elem_offset * sizeof(T),
              as_bytes_span(local.data(), local.size_bytes()));

  if (comm.rank() == 0) {
    DatasetDesc desc;
    desc.name = name;
    desc.dtype = dtype_of<T>();
    desc.global_dims = global_dims;
    desc.layout = Layout::kContiguous;
    desc.filter = FilterId::kNone;
    desc.file_offset = base;
    desc.nbytes = total_elems * sizeof(T);
    file.add_dataset(std::move(desc));
  }
}

template <typename T>
FilterWriteStats write_filtered_collective(mpi::Comm& comm, File& file,
                                           const std::string& name,
                                           std::span<const T> local,
                                           const sz::Dims& local_dims,
                                           const sz::Dims& global_dims,
                                           const Filter& filter) {
  FilterWriteStats stats;
  util::Timer timer;

  // Phase 1: local compression. The collective write below cannot start
  // anywhere until *every* rank has finished this phase — that is the
  // bottleneck the paper's overlapping design removes.
  const std::vector<std::uint8_t> blob =
      filter.encode(as_bytes_span(local.data(), local.size_bytes()), dtype_of<T>(),
                    local_dims);
  stats.compressed_bytes = blob.size();
  stats.compress_seconds = timer.seconds();

  // Phase 2: exchange compressed sizes; everyone derives identical offsets.
  timer.reset();
  const auto sizes = comm.allgather<std::uint64_t>(blob.size());
  const auto counts = comm.allgather<std::uint64_t>(local.size());
  stats.exchange_seconds = timer.seconds();

  // Phase 3: collective write. Entered together (allgather synchronized
  // phase 2), exited together via barrier — collective semantics.
  timer.reset();
  std::uint64_t total_bytes = 0, my_off = 0, my_elem_off = 0, total_elems = 0;
  for (int r = 0; r < comm.size(); ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (r < comm.rank()) {
      my_off += sizes[idx];
      my_elem_off += counts[idx];
    }
    total_bytes += sizes[idx];
    total_elems += counts[idx];
  }
  if (total_elems != global_dims.count()) {
    throw std::invalid_argument("h5: filtered slice counts != global dims");
  }
  const std::uint64_t base = file.alloc_collective(comm, total_bytes);
  file.pwrite(base + my_off, blob);

  // Metadata: gather the partition table on rank 0.
  PartitionRecord mine;
  mine.rank = static_cast<std::uint32_t>(comm.rank());
  mine.elem_offset = my_elem_off;
  mine.elem_count = local.size();
  mine.file_offset = base + my_off;
  mine.reserved_bytes = blob.size();
  mine.actual_bytes = blob.size();
  const auto parts = comm.allgatherv<PartitionRecord>({&mine, 1});
  if (comm.rank() == 0) {
    DatasetDesc desc;
    desc.name = name;
    desc.dtype = dtype_of<T>();
    desc.global_dims = global_dims;
    desc.layout = Layout::kPartitioned;
    desc.filter = filter.id();
    if (filter.id() == FilterId::kSz) {
      desc.abs_error_bound = static_cast<const SzFilter&>(filter).params().error_bound;
    }
    for (const auto& rank_parts : parts) {
      desc.partitions.insert(desc.partitions.end(), rank_parts.begin(), rank_parts.end());
    }
    file.add_dataset(std::move(desc));
  }
  comm.barrier();
  stats.write_seconds = timer.seconds();
  return stats;
}

std::vector<std::uint8_t> read_partition_payload(const File& file,
                                                 const DatasetDesc& desc,
                                                 const PartitionRecord& part) {
  (void)desc;
  const std::uint64_t in_slot = std::min(part.actual_bytes, part.reserved_bytes);
  std::vector<std::uint8_t> payload = file.pread(part.file_offset, in_slot);
  if (part.overflow_bytes > 0) {
    const auto tail = file.pread(part.overflow_offset, part.overflow_bytes);
    payload.insert(payload.end(), tail.begin(), tail.end());
  }
  if (payload.size() != part.actual_bytes) {
    throw std::runtime_error("h5: partition payload size mismatch");
  }
  return payload;
}

template <typename T>
std::vector<T> read_dataset(const File& file, const std::string& name,
                            const sz::Params& sz_params) {
  const DatasetDesc* desc = file.find_dataset(name);
  if (desc == nullptr) throw std::invalid_argument("h5: no dataset named " + name);
  if (desc->dtype != dtype_of<T>()) throw std::runtime_error("h5: dtype mismatch");

  const std::uint64_t total = sz::element_count(desc->global_dims);
  std::vector<T> out(total);

  if (desc->layout == Layout::kContiguous) {
    if (desc->nbytes != total * sizeof(T)) throw std::runtime_error("h5: extent mismatch");
    const auto bytes = file.pread(desc->file_offset, desc->nbytes);
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  const auto filter = make_filter(desc->filter, sz_params);
  for (std::size_t p = 0; p < desc->partitions.size(); ++p) {
    const auto& part = desc->partitions[p];
    const auto payload = read_partition_payload(file, *desc, part);
    std::vector<std::uint8_t> raw;
    try {
      raw = filter->decode(payload, desc->dtype, part.elem_count);
    } catch (const std::exception&) {
      rethrow_with_location(desc->name, p);
    }
    if (part.elem_offset + part.elem_count > total) {
      throw std::runtime_error("h5: partition exceeds dataset extent");
    }
    std::memcpy(out.data() + part.elem_offset, raw.data(), raw.size());
  }
  return out;
}

template void write_contiguous<float>(mpi::Comm&, File&, const std::string&,
                                      std::span<const float>, const sz::Dims&);
template void write_contiguous<double>(mpi::Comm&, File&, const std::string&,
                                       std::span<const double>, const sz::Dims&);
template FilterWriteStats write_filtered_collective<float>(mpi::Comm&, File&,
                                                           const std::string&,
                                                           std::span<const float>,
                                                           const sz::Dims&, const sz::Dims&,
                                                           const Filter&);
template FilterWriteStats write_filtered_collective<double>(mpi::Comm&, File&,
                                                            const std::string&,
                                                            std::span<const double>,
                                                            const sz::Dims&, const sz::Dims&,
                                                            const Filter&);
template std::vector<float> read_dataset<float>(const File&, const std::string&,
                                                const sz::Params&);
template std::vector<double> read_dataset<double>(const File&, const std::string&,
                                                  const sz::Params&);

// ---- region (hyperslab) reads ---------------------------------------------

RegionSelection plan_region_selection(const DatasetDesc& desc, const sz::Region& region) {
  sz::validate_region(region, desc.global_dims);
  RegionSelection sel;
  sel.region = region;
  sel.elements = region.count();
  sel.partitions_total =
      desc.layout == Layout::kContiguous ? 1 : desc.partitions.size();
  if (sel.elements == 0) return sel;

  // The selected rows in global-flat order; flat_lo is strictly
  // increasing, which the per-partition binary search below relies on.
  std::vector<RowSegment> rows;
  sz::for_each_region_row(region, desc.global_dims,
                          [&](std::size_t g, std::size_t len, std::size_t o) {
                            rows.push_back({g, len, o});
                          });

  if (desc.layout == Layout::kContiguous) {
    PartitionSelection ps;
    ps.flat_lo = rows.front().flat_lo;
    ps.flat_hi = rows.back().flat_lo + rows.back().len;
    ps.segments = std::move(rows);
    sel.parts.push_back(std::move(ps));
    return sel;
  }

  const std::uint64_t row_len = rows.front().len;  // all rows share one length
  for (std::size_t p = 0; p < desc.partitions.size(); ++p) {
    const PartitionRecord& part = desc.partitions[p];
    const std::uint64_t lo = part.elem_offset;
    const std::uint64_t hi = part.elem_offset + part.elem_count;
    PartitionSelection ps;
    ps.part_index = p;
    // First row whose end can reach past the partition start: a row
    // starting mid-partition-boundary is clipped, not dropped.
    const std::uint64_t start_key = lo >= row_len ? lo - row_len + 1 : 0;
    auto it = std::lower_bound(
        rows.begin(), rows.end(), start_key,
        [](const RowSegment& r, std::uint64_t v) { return r.flat_lo < v; });
    for (; it != rows.end() && it->flat_lo < hi; ++it) {
      const std::uint64_t s = std::max(it->flat_lo, lo);
      const std::uint64_t e = std::min(it->flat_lo + it->len, hi);
      if (s >= e) continue;
      ps.segments.push_back({s, e - s, it->out_offset + (s - it->flat_lo)});
    }
    if (ps.segments.empty()) continue;
    ps.flat_lo = ps.segments.front().flat_lo;
    ps.flat_hi = ps.segments.back().flat_lo + ps.segments.back().len;
    sel.parts.push_back(std::move(ps));
  }
  return sel;
}

std::uint64_t selection_payload_bytes(const DatasetDesc& desc,
                                      const RegionSelection& sel) {
  std::uint64_t total = 0;
  for (const PartitionSelection& ps : sel.parts) {
    if (ps.part_index == kContiguousSelection) {
      total += (ps.flat_hi - ps.flat_lo) * element_size(desc.dtype);
    } else {
      total += desc.partitions[ps.part_index].actual_bytes;
    }
  }
  return total;
}

std::vector<std::uint8_t> PayloadTicket::join() {
  std::vector<std::uint8_t> payload = slot.take();
  if (overflow.valid()) {
    const std::vector<std::uint8_t> tail = overflow.take();
    payload.insert(payload.end(), tail.begin(), tail.end());
  }
  if (payload.size() != expect_bytes) {
    throw std::runtime_error("h5: partition payload size mismatch");
  }
  return payload;
}

std::vector<PayloadTicket> async_read_selection(File& file, const DatasetDesc& desc,
                                                const RegionSelection& sel) {
  std::vector<PayloadTicket> tickets;
  tickets.reserve(sel.parts.size());
  for (const PartitionSelection& ps : sel.parts) {
    PayloadTicket t;
    if (ps.part_index == kContiguousSelection) {
      // Same metadata consistency gate as the synchronous path, so
      // corrupt footers throw here instead of reading a neighbour's bytes.
      if (desc.nbytes != sz::element_count(desc.global_dims) * element_size(desc.dtype)) {
        throw std::runtime_error("h5: extent mismatch");
      }
      const std::uint64_t bytes = (ps.flat_hi - ps.flat_lo) * element_size(desc.dtype);
      t.slot = file.async_read(desc.file_offset + ps.flat_lo * element_size(desc.dtype),
                               bytes);
      t.expect_bytes = bytes;
    } else {
      const PartitionRecord& part = desc.partitions[ps.part_index];
      t.slot = file.async_read(part.file_offset,
                               std::min(part.actual_bytes, part.reserved_bytes));
      if (part.overflow_bytes > 0) {
        t.overflow = file.async_read(part.overflow_offset, part.overflow_bytes);
      }
      t.expect_bytes = part.actual_bytes;
    }
    tickets.push_back(std::move(t));
  }
  return tickets;
}

std::vector<std::uint8_t> read_selection_payload(const File& file,
                                                 const DatasetDesc& desc,
                                                 const PartitionSelection& ps) {
  if (ps.part_index == kContiguousSelection) {
    if (desc.nbytes != sz::element_count(desc.global_dims) * element_size(desc.dtype)) {
      throw std::runtime_error("h5: extent mismatch");
    }
    const std::size_t esize = element_size(desc.dtype);
    return file.pread(desc.file_offset + ps.flat_lo * esize,
                      (ps.flat_hi - ps.flat_lo) * esize);
  }
  return read_partition_payload(file, desc, desc.partitions[ps.part_index]);
}

template <typename T>
void scatter_selection_part(const DatasetDesc& desc, const RegionSelection& sel,
                            const PartitionSelection& ps,
                            std::span<const std::uint8_t> payload, unsigned threads,
                            std::span<T> out, RegionReadStats* stats,
                            sz::VerifyMode verify) {
  if (out.size() != sel.elements) {
    throw std::invalid_argument("h5: region buffer size mismatch");
  }
  if (stats != nullptr) stats->payload_bytes += payload.size();

  // Contiguous pseudo-partition: the payload is exactly the raw hull
  // [flat_lo, flat_hi), so segments copy straight through.
  if (ps.part_index == kContiguousSelection) {
    if (payload.size() != (ps.flat_hi - ps.flat_lo) * sizeof(T)) {
      throw std::runtime_error("h5: contiguous hull size mismatch");
    }
    for (const RowSegment& seg : ps.segments) {
      std::memcpy(out.data() + seg.out_offset,
                  payload.data() + (seg.flat_lo - ps.flat_lo) * sizeof(T),
                  seg.len * sizeof(T));
    }
    return;
  }

  const PartitionRecord& part = desc.partitions[ps.part_index];
  sz::Params filter_params;
  filter_params.verify = verify;
  const auto filter = make_filter(desc.filter, filter_params);
  // Decode coordinate system: self-describing blobs carry their true
  // local extents (which is what unlocks the block-indexed partial
  // decode); codecs without stored extents are sliced in flat {1,1,n}
  // order. The registry-made filter answers for itself — no per-id
  // switch here.
  sz::Dims local_dims = sz::Dims::make_1d(part.elem_count);
  try {
    if (const auto stored = filter->stored_dims(payload)) {
      if (sz::element_count(*stored) != part.elem_count) {
        throw std::runtime_error("h5: partition extents disagree with blob");
      }
      local_dims = *stored;
    }
  } catch (const std::exception&) {
    rethrow_with_location(desc.name, ps.part_index);
  }

  // The needed flat interval, as the smallest covering box of the
  // partition's extents. The covering box is itself one contiguous flat
  // range, so segments index the decoded buffer by offset subtraction.
  const sz::Region cover = sz::covering_region(local_dims, ps.flat_lo - part.elem_offset,
                                               ps.flat_hi - part.elem_offset);
  const std::size_t cover_lo = sz::region_flat_lo(cover, local_dims);

  // When the segments tile one contiguous run of `out` in cover order —
  // restart slabs and whole-field reads — the partition decodes straight
  // into that run; any other selection decodes into scratch and scatters.
  const std::size_t cover_count = cover.count();
  const RowSegment& head = ps.segments.front();
  bool tiles = head.flat_lo - part.elem_offset == cover_lo;
  std::size_t tiled = 0;
  for (const RowSegment& seg : ps.segments) {
    tiles = tiles && seg.flat_lo == head.flat_lo + tiled &&
            seg.out_offset == head.out_offset + tiled;
    tiled += seg.len;
  }
  tiles = tiles && tiled == cover_count;
  std::vector<T> scratch(tiles ? 0 : cover_count);
  const std::span<T> dest =
      tiles ? out.subspan(head.out_offset, cover_count) : std::span<T>(scratch);

  sz::RegionDecodeStats dstats;
  try {
    filter->decode_region(payload, desc.dtype, local_dims, cover, threads, &dstats,
                          {reinterpret_cast<std::uint8_t*>(dest.data()), dest.size_bytes()});
  } catch (const std::exception&) {
    rethrow_with_location(desc.name, ps.part_index);
  }
  if (stats != nullptr) {
    stats->blocks_total += dstats.blocks_total;
    stats->blocks_decoded += dstats.blocks_decoded;
  }
  if (tiles) return;

  for (const RowSegment& seg : ps.segments) {
    const std::size_t src = (seg.flat_lo - part.elem_offset) - cover_lo;
    std::memcpy(out.data() + seg.out_offset, scratch.data() + src, seg.len * sizeof(T));
  }
}

template <typename T>
std::vector<T> read_region(const File& file, const std::string& name,
                           const sz::Region& region, const sz::Params& sz_params,
                           RegionReadStats* stats) {
  const DatasetDesc* desc = file.find_dataset(name);
  if (desc == nullptr) throw std::invalid_argument("h5: no dataset named " + name);
  if (desc->dtype != dtype_of<T>()) throw std::runtime_error("h5: dtype mismatch");

  const RegionSelection sel = plan_region_selection(*desc, region);
  if (stats != nullptr) {
    stats->partitions_total += sel.partitions_total;
    stats->partitions_read += sel.parts.size();
  }
  std::vector<T> out(sel.elements);
  for (const PartitionSelection& ps : sel.parts) {
    const std::vector<std::uint8_t> payload = read_selection_payload(file, *desc, ps);
    scatter_selection_part<T>(*desc, sel, ps, payload, sz_params.threads, out, stats,
                              sz_params.verify);
  }
  return out;
}

template void scatter_selection_part<float>(const DatasetDesc&, const RegionSelection&,
                                            const PartitionSelection&,
                                            std::span<const std::uint8_t>, unsigned,
                                            std::span<float>, RegionReadStats*,
                                            sz::VerifyMode);
template void scatter_selection_part<double>(const DatasetDesc&, const RegionSelection&,
                                             const PartitionSelection&,
                                             std::span<const std::uint8_t>, unsigned,
                                             std::span<double>, RegionReadStats*,
                                             sz::VerifyMode);
template std::vector<float> read_region<float>(const File&, const std::string&,
                                               const sz::Region&, const sz::Params&,
                                               RegionReadStats*);
template std::vector<double> read_region<double>(const File&, const std::string&,
                                                 const sz::Region&, const sz::Params&,
                                                 RegionReadStats*);

}  // namespace pcw::h5

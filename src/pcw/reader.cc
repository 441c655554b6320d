#include "pcw/reader.h"

#include <numeric>
#include <stdexcept>

#include "core/read_engine.h"
#include "core/read_planner.h"
#include "core/scrub.h"
#include "h5/dataset_io.h"
#include "pcw/facade_impl.h"
#include "util/timer.h"

namespace pcw {
namespace {

sz::VerifyMode to_sz_verify(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff: return sz::VerifyMode::kOff;
    case VerifyMode::kBlob: return sz::VerifyMode::kBlob;
    case VerifyMode::kBlock: return sz::VerifyMode::kBlock;
  }
  return sz::VerifyMode::kBlock;
}

DatasetInfo info_of(const h5::DatasetDesc& d) {
  DatasetInfo info;
  info.name = d.name;
  info.dtype = detail::from_h5(d.dtype);
  info.dims = detail::from_sz(d.global_dims);
  info.layout =
      d.layout == h5::Layout::kContiguous ? Layout::kContiguous : Layout::kPartitioned;
  info.filter_id = static_cast<std::uint32_t>(d.filter);
  info.error_bound = d.abs_error_bound;
  if (d.layout == h5::Layout::kContiguous) {
    info.stored_bytes = d.nbytes;
  } else {
    for (const h5::PartitionRecord& p : d.partitions) info.stored_bytes += p.actual_bytes;
  }
  info.partitions.reserve(d.partitions.size());
  for (const h5::PartitionRecord& p : d.partitions) {
    PartitionInfo part;
    part.rank = p.rank;
    part.elem_offset = p.elem_offset;
    part.elem_count = p.elem_count;
    part.file_offset = p.file_offset;
    part.reserved_bytes = p.reserved_bytes;
    part.actual_bytes = p.actual_bytes;
    part.overflow_offset = p.overflow_offset;
    part.overflow_bytes = p.overflow_bytes;
    info.partitions.push_back(part);
  }
  info.series_member = d.series_member;
  info.series_base = d.series_base;
  info.series_step = d.series_step;
  info.series_ref_step = d.series_ref_step;
  return info;
}

/// Resolves + type-checks a dataset; classification-friendly throws.
const h5::DatasetDesc& resolve(const h5::File& file, const std::string& name,
                               DType expected) {
  const h5::DatasetDesc* desc = file.find_dataset(name);
  if (desc == nullptr) throw std::invalid_argument("h5: no dataset named " + name);
  if (detail::from_h5(desc->dtype) != expected) {
    throw std::invalid_argument("dataset '" + name + "' holds " +
                                std::string(to_string(detail::from_h5(desc->dtype))) +
                                ", requested " + to_string(expected));
  }
  return *desc;
}

sz::Params read_params(const ReaderOptions& options) {
  sz::Params params;
  params.threads = options.decompress_threads;
  params.verify = to_sz_verify(options.verify);
  return params;
}

void merge_read_report(const core::ReadReport& r, ReadReport& out) {
  out.plan_seconds += r.plan_seconds;
  out.read_seconds += r.read_seconds;
  out.decompress_seconds += r.decompress_seconds;
  out.total_seconds += r.total_seconds;
  out.bytes_read += r.bytes_read;
  out.elements_out += r.elements_out;
  out.partitions_total += r.partitions_total;
  out.partitions_read += r.partitions_read;
  out.blocks_total += r.blocks_total;
  out.blocks_decoded += r.blocks_decoded;
}

}  // namespace

Result<Reader> Reader::open(const std::string& path, ReaderOptions options) {
  return detail::guarded([&] {
    Reader reader;
    reader.impl_ = std::make_shared<Impl>();
    reader.impl_->file = h5::File::open(path);
    reader.impl_->options = options;
    reader.impl_->telemetry_base = metrics_snapshot();
    return reader;
  });
}

Telemetry Reader::telemetry() const {
  return impl_ ? detail::telemetry_since(impl_->telemetry_base) : Telemetry{};
}

std::vector<DatasetInfo> Reader::datasets() const {
  std::vector<DatasetInfo> out;
  if (!impl_) return out;
  for (const h5::DatasetDesc& d : impl_->file->datasets()) out.push_back(info_of(d));
  return out;
}

Result<DatasetInfo> Reader::dataset(const std::string& name) const {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "reader: invalid handle");
  return detail::guarded([&] {
    const h5::DatasetDesc* desc = impl_->file->find_dataset(name);
    if (desc == nullptr) throw std::invalid_argument("h5: no dataset named " + name);
    return info_of(*desc);
  });
}

Result<DatasetInfo> Reader::series_step(const std::string& base,
                                        std::uint32_t step) const {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "reader: invalid handle");
  return detail::guarded([&] {
    const h5::DatasetDesc* desc = impl_->file->find_series(base, step);
    if (desc == nullptr) {
      throw std::invalid_argument("h5: no series step " + std::to_string(step) +
                                  " of " + base);
    }
    return info_of(*desc);
  });
}

std::uint64_t Reader::file_bytes() const {
  return impl_ ? impl_->file->file_bytes() : 0;
}

std::string Reader::path() const { return impl_ ? impl_->file->path() : std::string(); }

template <typename T>
Result<std::vector<T>> Reader::read(const std::string& name) const {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "reader: invalid handle");
  return detail::guarded([&] {
    const h5::DatasetDesc& desc = resolve(*impl_->file, name, dtype_of<T>());
    return h5::read_region<T>(*impl_->file, name, sz::Region::of(desc.global_dims),
                              read_params(impl_->options));
  });
}

template Result<std::vector<float>> Reader::read<float>(const std::string&) const;
template Result<std::vector<double>> Reader::read<double>(const std::string&) const;

Result<std::vector<std::uint8_t>> Reader::read_bytes(const std::string& name,
                                                     DType expected) const {
  return detail::dispatch_dtype(expected, [&]<typename T>(T) {
    return detail::erase_typed(read<T>(name));
  });
}

template <typename T>
Result<std::vector<T>> Reader::read_region(const std::string& name, const Region& region,
                                           ReadReport* report) const {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "reader: invalid handle");
  return detail::guarded([&] {
    resolve(*impl_->file, name, dtype_of<T>());
    util::Timer total;
    h5::RegionReadStats stats;
    std::vector<T> out = h5::read_region<T>(*impl_->file, name, detail::to_sz(region),
                                            read_params(impl_->options), &stats);
    if (report != nullptr) {
      report->read_seconds += stats.read_seconds;
      report->decompress_seconds += stats.decode_seconds;
      report->total_seconds += total.seconds();
      report->bytes_read += stats.payload_bytes;
      report->elements_out += region.count();
      report->partitions_total += stats.partitions_total;
      report->partitions_read += stats.partitions_read;
      report->blocks_total += stats.blocks_total;
      report->blocks_decoded += stats.blocks_decoded;
    }
    return out;
  });
}

template Result<std::vector<float>> Reader::read_region<float>(const std::string&,
                                                               const Region&,
                                                               ReadReport*) const;
template Result<std::vector<double>> Reader::read_region<double>(const std::string&,
                                                                 const Region&,
                                                                 ReadReport*) const;

Result<std::vector<std::uint8_t>> Reader::read_region_bytes(const std::string& name,
                                                            const Region& region,
                                                            DType expected,
                                                            ReadReport* report) const {
  return detail::dispatch_dtype(expected, [&]<typename T>(T) {
    return detail::erase_typed(read_region<T>(name, region, report));
  });
}

template <typename T>
Result<std::vector<std::vector<T>>> Reader::read_fields(
    Rank& rank, std::span<const ReadRequest> requests, ReadReport* report) const {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "reader: invalid handle");
  return detail::guarded([&] {
    std::vector<core::ReadSpec> specs;
    specs.reserve(requests.size());
    for (const ReadRequest& req : requests) {
      resolve(*impl_->file, req.name, dtype_of<T>());
      core::ReadSpec spec;
      spec.name = req.name;
      if (req.region) spec.region.emplace(detail::to_sz(*req.region));
      specs.push_back(std::move(spec));
    }
    core::ReadEngineConfig config;
    config.decompress_threads = impl_->options.decompress_threads;
    config.verify = to_sz_verify(impl_->options.verify);
    core::ReadReport core_report;
    std::vector<std::vector<T>> out =
        core::read_fields<T>(rank.impl().comm, *impl_->file, specs, config, &core_report);
    if (report != nullptr) merge_read_report(core_report, *report);
    return out;
  });
}

template Result<std::vector<std::vector<float>>> Reader::read_fields<float>(
    Rank&, std::span<const ReadRequest>, ReadReport*) const;
template Result<std::vector<std::vector<double>>> Reader::read_fields<double>(
    Rank&, std::span<const ReadRequest>, ReadReport*) const;

Result<std::vector<std::vector<std::uint8_t>>> Reader::read_fields_bytes(
    Rank& rank, std::span<const ReadRequest> requests, DType expected,
    ReadReport* report) const {
  return detail::dispatch_dtype(expected, [&]<typename T>(T) {
    return detail::erase_typed(read_fields<T>(rank, requests, report));
  });
}

Result<std::vector<std::uint8_t>> Reader::partition_payload(const std::string& name,
                                                            std::size_t part_index) const {
  return partition_prefix(name, part_index, h5::kWholePayload);
}

Result<std::vector<std::uint8_t>> Reader::partition_prefix(const std::string& name,
                                                           std::size_t part_index,
                                                           std::uint64_t max_bytes) const {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "reader: invalid handle");
  return detail::guarded([&] {
    const h5::DatasetDesc* desc = impl_->file->find_dataset(name);
    if (desc == nullptr) throw std::invalid_argument("h5: no dataset named " + name);
    if (part_index >= desc->partitions.size()) {
      throw std::invalid_argument("reader: partition index out of range for " + name);
    }
    return h5::read_partition_payload(*impl_->file, desc->partitions[part_index],
                                      max_bytes);
  });
}

Result<ScrubReport> Reader::scrub(bool deep) const {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "reader: invalid handle");
  return detail::guarded([&] {
    const core::ScrubReport core = core::scrub_file(*impl_->file, deep);
    ScrubReport out;
    out.clean = core.clean;
    out.damaged = core.damaged;
    out.unreadable = core.unreadable;
    out.datasets.reserve(core.datasets.size());
    for (const core::DatasetScrub& d : core.datasets) {
      ScrubDataset s;
      s.name = d.name;
      s.state = static_cast<ScrubHealth>(d.state);
      s.salvageable = d.salvageable;
      s.partitions = d.partitions;
      s.damaged_partitions = d.damaged_partitions;
      s.detail = d.detail;
      out.datasets.push_back(std::move(s));
    }
    return out;
  });
}

Region restart_region(const Dims& global, int rank, int nranks) {
  return detail::from_sz(core::restart_region(detail::to_sz(global), rank, nranks));
}

}  // namespace pcw

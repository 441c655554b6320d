#include "pcw/series.h"

#include <stdexcept>

#include "core/series.h"
#include "pcw/facade_impl.h"

namespace pcw {
namespace {

core::SeriesConfig to_core(const SeriesOptions& o) {
  core::SeriesConfig config;
  config.keyframe_interval = o.keyframe_interval;
  config.compress_threads = o.compress_threads;
  config.pipeline = o.pipeline;
  config.commit_every_step = o.commit_every_step;
  return config;
}

sz::VerifyMode to_core(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff: return sz::VerifyMode::kOff;
    case VerifyMode::kBlob: return sz::VerifyMode::kBlob;
    case VerifyMode::kBlock: return sz::VerifyMode::kBlock;
  }
  return sz::VerifyMode::kBlock;
}

core::SeriesReadConfig to_core(const SeriesReadOptions& o) {
  core::SeriesReadConfig config;
  config.decompress_threads = o.decompress_threads;
  config.pipeline = o.pipeline;
  config.verify = to_core(o.verify);
  config.degraded = o.degraded;
  return config;
}

SeriesStepReport from_core(const core::SeriesStepReport& r) {
  SeriesStepReport out;
  out.step = r.step;
  out.keyframe = r.keyframe;
  out.compress_seconds = r.compress_seconds;
  out.write_seconds = r.write_seconds;
  out.total_seconds = r.total_seconds;
  out.raw_bytes = r.raw_bytes;
  out.compressed_bytes = r.compressed_bytes;
  out.temporal_blocks = r.temporal_blocks;
  out.spatial_blocks = r.spatial_blocks;
  return out;
}

void merge_read_report(const core::SeriesReadReport& r, SeriesReadReport& out) {
  out.steps_chained = std::max(out.steps_chained, r.steps_chained);
  out.bytes_read += r.bytes_read;
  out.elements_out += r.elements_out;
  out.blocks_total += r.blocks_total;
  out.blocks_decoded += r.blocks_decoded;
  out.read_seconds += r.read_seconds;
  out.decompress_seconds += r.decompress_seconds;
  out.total_seconds += r.total_seconds;
  for (const core::DegradedRead& d : r.degraded) {
    DegradedRead pub;
    pub.dataset = d.dataset;
    pub.partition = d.partition;
    pub.step_requested = d.step_requested;
    pub.step_recovered = d.step_recovered;
    pub.detail = d.detail;
    out.degraded.push_back(std::move(pub));
  }
}

template <typename T>
std::vector<core::FieldSpec<T>> to_specs(std::span<const Field> fields) {
  std::vector<core::FieldSpec<T>> specs;
  specs.reserve(fields.size());
  for (const Field& f : fields) {
    if (f.codec.filter_id != kCodecSz) {
      throw std::invalid_argument(
          "series: steps are stored with the sz temporal codec; field '" + f.name +
          "' selects codec id " + std::to_string(f.codec.filter_id));
    }
    if (f.local.bytes.size() != f.local.dims.count() * sizeof(T)) {
      throw std::invalid_argument("series: field '" + f.name +
                                  "' bytes do not match its local dims");
    }
    core::FieldSpec<T> spec;
    spec.name = f.name;
    spec.local = {reinterpret_cast<const T*>(f.local.bytes.data()),
                  f.local.bytes.size() / sizeof(T)};
    spec.local_dims = detail::to_sz(f.local.dims);
    spec.global_dims = detail::to_sz(f.global_dims);
    spec.params = detail::to_sz_params(f.codec);
    specs.push_back(spec);
  }
  return specs;
}

std::vector<core::ReadSpec> to_read_specs(std::span<const ReadRequest> requests) {
  std::vector<core::ReadSpec> specs;
  specs.reserve(requests.size());
  for (const ReadRequest& req : requests) {
    core::ReadSpec spec;
    spec.name = req.name;
    if (req.region) spec.region.emplace(detail::to_sz(*req.region));
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

Result<SeriesWriter> SeriesWriter::create(Writer& writer, SeriesOptions options) {
  if (!writer.valid()) {
    return Status(StatusCode::kFailedPrecondition, "series: invalid Writer handle");
  }
  SeriesWriter out;
  out.impl_ = std::make_shared<Impl>();
  out.impl_->writer = writer.impl();
  out.impl_->options = options;
  out.impl_->telemetry_base = metrics_snapshot();
  return out;
}

Telemetry SeriesWriter::telemetry() const {
  return impl_ ? detail::telemetry_since(impl_->telemetry_base) : Telemetry{};
}

Result<SeriesStepReport> SeriesWriter::write_step(Rank& rank,
                                                  std::span<const Field> fields) {
  if (!impl_) {
    return Status(StatusCode::kFailedPrecondition, "series: invalid handle");
  }
  if (fields.empty()) {
    return Status(StatusCode::kInvalidArgument, "series: no fields");
  }
  const DType dtype = fields.front().local.dtype;
  for (const Field& f : fields) {
    if (f.local.dtype != dtype) {
      return Status(StatusCode::kInvalidArgument,
                    "series: mixed element types in one step");
    }
  }
  if (dtype == DType::kBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "series: raw-bytes fields are not supported");
  }
  // The element type is pinned by the first step (the engine underneath
  // is templated on it).
  if ((dtype == DType::kFloat32 && impl_->f64.has_value()) ||
      (dtype == DType::kFloat64 && impl_->f32.has_value())) {
    return Status(StatusCode::kFailedPrecondition,
                  "series: element type changed mid-series");
  }
  return detail::guarded([&] {
    if (dtype == DType::kFloat32) {
      if (!impl_->f32) {
        impl_->f32.emplace(*impl_->writer->file, to_core(impl_->options));
      }
      return from_core(impl_->f32->write_step(rank.impl().comm, to_specs<float>(fields)));
    }
    if (!impl_->f64) {
      impl_->f64.emplace(*impl_->writer->file, to_core(impl_->options));
    }
    return from_core(impl_->f64->write_step(rank.impl().comm, to_specs<double>(fields)));
  });
}

std::uint32_t SeriesWriter::next_step() const {
  if (!impl_) return 0;
  if (impl_->f32) return impl_->f32->next_step();
  if (impl_->f64) return impl_->f64->next_step();
  return 0;
}

template <typename T>
Result<std::vector<T>> restart(const Reader& reader, const std::string& field,
                               std::uint32_t step, const std::optional<Region>& region,
                               const SeriesReadOptions& options,
                               SeriesReadReport* report) {
  if (!reader.valid()) {
    return Status(StatusCode::kFailedPrecondition, "series: invalid Reader handle");
  }
  return detail::guarded([&] {
    std::optional<sz::Region> core_region;
    if (region) core_region = detail::to_sz(*region);
    core::SeriesReadReport core_report;
    std::vector<T> out = core::restart_at_step<T>(*reader.impl()->file, field, step,
                                                  core_region, to_core(options),
                                                  &core_report);
    if (report != nullptr) merge_read_report(core_report, *report);
    return out;
  });
}

template Result<std::vector<float>> restart<float>(const Reader&, const std::string&,
                                                   std::uint32_t,
                                                   const std::optional<Region>&,
                                                   const SeriesReadOptions&,
                                                   SeriesReadReport*);
template Result<std::vector<double>> restart<double>(const Reader&, const std::string&,
                                                     std::uint32_t,
                                                     const std::optional<Region>&,
                                                     const SeriesReadOptions&,
                                                     SeriesReadReport*);

Result<std::vector<std::uint8_t>> restart_bytes(const Reader& reader,
                                                const std::string& field,
                                                std::uint32_t step, DType expected,
                                                const std::optional<Region>& region,
                                                const SeriesReadOptions& options,
                                                SeriesReadReport* report) {
  return detail::dispatch_dtype(expected, [&]<typename T>(T) {
    return detail::erase_typed(restart<T>(reader, field, step, region, options, report));
  });
}

template <typename T>
Result<std::vector<std::vector<T>>> read_series(Rank& rank, const Reader& reader,
                                                std::span<const ReadRequest> requests,
                                                std::uint32_t step,
                                                const SeriesReadOptions& options,
                                                SeriesReadReport* report) {
  if (!reader.valid()) {
    return Status(StatusCode::kFailedPrecondition, "series: invalid Reader handle");
  }
  return detail::guarded([&] {
    const std::vector<core::ReadSpec> specs = to_read_specs(requests);
    core::SeriesReadReport core_report;
    std::vector<std::vector<T>> out = core::read_series<T>(
        rank.impl().comm, *reader.impl()->file, specs, step, to_core(options),
        &core_report);
    if (report != nullptr) merge_read_report(core_report, *report);
    return out;
  });
}

template Result<std::vector<std::vector<float>>> read_series<float>(
    Rank&, const Reader&, std::span<const ReadRequest>, std::uint32_t,
    const SeriesReadOptions&, SeriesReadReport*);
template Result<std::vector<std::vector<double>>> read_series<double>(
    Rank&, const Reader&, std::span<const ReadRequest>, std::uint32_t,
    const SeriesReadOptions&, SeriesReadReport*);

Result<std::vector<std::vector<std::uint8_t>>> read_series_bytes(
    Rank& rank, const Reader& reader, std::span<const ReadRequest> requests,
    std::uint32_t step, DType expected, const SeriesReadOptions& options,
    SeriesReadReport* report) {
  return detail::dispatch_dtype(expected, [&]<typename T>(T) {
    return detail::erase_typed(
        read_series<T>(rank, reader, requests, step, options, report));
  });
}

}  // namespace pcw

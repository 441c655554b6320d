#include "pcw/writer.h"

#include <stdexcept>

#include "core/engine.h"
#include "h5/codec_registry.h"
#include "h5/dataset_io.h"
#include "pcw/facade_impl.h"
#include "util/timer.h"

namespace pcw {
namespace {

core::WriteMode to_core(WriteMode m) {
  switch (m) {
    case WriteMode::kNoCompression: return core::WriteMode::kNoCompression;
    case WriteMode::kFilterCollective: return core::WriteMode::kFilterCollective;
    case WriteMode::kOverlap: return core::WriteMode::kOverlap;
    case WriteMode::kOverlapReorder: return core::WriteMode::kOverlapReorder;
  }
  return core::WriteMode::kOverlapReorder;
}

void merge_rank_report(const core::RankReport& r, WriteReport& out) {
  out.predict_seconds += r.predict_seconds;
  out.exchange_seconds += r.exchange_seconds;
  out.compress_seconds += r.compress_seconds;
  out.write_seconds += r.write_seconds;
  out.overflow_seconds += r.overflow_seconds;
  out.raw_bytes += r.raw_bytes;
  out.compressed_bytes += r.compressed_bytes;
  out.reserved_bytes += r.reserved_bytes;
  out.overflow_bytes += r.overflow_bytes;
  out.overflow_partitions += r.overflow_partitions;
  out.order = r.order;
}

template <typename T>
std::span<const T> typed_span(const FieldView& v) {
  return {reinterpret_cast<const T*>(v.bytes.data()), v.bytes.size() / sizeof(T)};
}

/// The write path proper: fields stored with kCodecSz run the predictive
/// engine as one batch (all four modes); every other codec — built-in or
/// registered — takes the collective filter path through the registry, so
/// an out-of-tree codec writes real partitioned datasets with zero
/// h5-layer knowledge.
template <typename T>
void write_typed(mpi::Comm& comm, h5::File& file, const WriterOptions& options,
                 std::span<const Field> fields, WriteReport& out) {
  core::EngineConfig config;
  config.mode = to_core(options.mode);
  config.rspace = options.extra_space;
  config.compress_threads = options.compress_threads;

  std::vector<core::FieldSpec<T>> engine_fields;
  for (const Field& f : fields) {
    if (f.local.bytes.size() != f.local.dims.count() * sizeof(T)) {
      throw std::invalid_argument("writer: field '" + f.name +
                                  "' bytes do not match its local dims");
    }
    if (options.mode == WriteMode::kNoCompression || f.codec.filter_id == kCodecSz) {
      core::FieldSpec<T> spec;
      spec.name = f.name;
      spec.local = typed_span<T>(f.local);
      spec.local_dims = detail::to_sz(f.local.dims);
      spec.global_dims = detail::to_sz(f.global_dims);
      spec.params = detail::to_sz_params(f.codec);
      engine_fields.push_back(spec);
    } else {
      h5::FilterParams params;
      params.sz = detail::to_sz_params(f.codec);
      params.zfp = detail::to_zfp_params(f.codec);
      const auto filter =
          h5::CodecRegistry::instance().make(f.codec.filter_id, params);
      const h5::FilterWriteStats stats = h5::write_filtered_collective<T>(
          comm, file, f.name, typed_span<T>(f.local), detail::to_sz(f.local.dims),
          detail::to_sz(f.global_dims), *filter);
      out.compress_seconds += stats.compress_seconds;
      out.exchange_seconds += stats.exchange_seconds;
      out.write_seconds += stats.write_seconds;
      out.compressed_bytes += stats.compressed_bytes;
      out.reserved_bytes += stats.compressed_bytes;
      out.raw_bytes += f.local.bytes.size();
    }
  }
  if (!engine_fields.empty()) {
    merge_rank_report(core::write_fields<T>(comm, file, engine_fields, config), out);
  }
}

}  // namespace

Result<Writer> Writer::create(const std::string& path, WriterOptions options) {
  return detail::guarded([&] {
    h5::FileOptions fopts;
    fopts.async_threads = options.async_threads;
    fopts.atomic_create = options.atomic_create;
    fopts.write_retries = options.write_retries;
    Writer writer;
    writer.impl_ = std::make_shared<Impl>();
    writer.impl_->file = h5::File::create(path, fopts);
    writer.impl_->options = options;
    writer.impl_->telemetry_base = metrics_snapshot();
    return writer;
  });
}

Result<WriteReport> Writer::write(Rank& rank, std::span<const Field> fields) {
  if (!impl_) {
    return Status(StatusCode::kFailedPrecondition, "writer: invalid handle");
  }
  return detail::guarded([&] {
    if (fields.empty()) throw std::invalid_argument("writer: no fields");
    const DType dtype = fields.front().local.dtype;
    for (const Field& f : fields) {
      if (f.local.dtype != dtype) {
        throw std::invalid_argument(
            "writer: mixed element types in one write call");
      }
    }
    WriteReport out;
    util::Timer total;
    switch (dtype) {
      case DType::kFloat32:
        write_typed<float>(rank.impl().comm, *impl_->file, impl_->options, fields, out);
        break;
      case DType::kFloat64:
        write_typed<double>(rank.impl().comm, *impl_->file, impl_->options, fields, out);
        break;
      case DType::kBytes:
        throw std::invalid_argument("writer: raw-bytes fields are not supported");
    }
    out.total_seconds = total.seconds();
    return out;
  });
}

Status Writer::commit(Rank& rank) {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "writer: invalid handle");
  return detail::guarded_status([&] { impl_->file->commit_collective(rank.impl().comm); });
}

Status Writer::commit() {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "writer: invalid handle");
  return detail::guarded_status([&] { impl_->file->commit(); });
}

Status Writer::close(Rank& rank) {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "writer: invalid handle");
  return detail::guarded_status([&] { impl_->file->close_collective(rank.impl().comm); });
}

Status Writer::close() {
  if (!impl_) return Status(StatusCode::kFailedPrecondition, "writer: invalid handle");
  return detail::guarded_status([&] { impl_->file->close_single(); });
}

std::uint64_t Writer::file_bytes() const {
  return impl_ ? impl_->file->file_bytes() : 0;
}

std::string Writer::path() const { return impl_ ? impl_->file->path() : std::string(); }

Telemetry Writer::telemetry() const {
  return impl_ ? detail::telemetry_since(impl_->telemetry_base) : Telemetry{};
}

}  // namespace pcw

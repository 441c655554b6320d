#include "core/engine.h"

#include <stdexcept>

#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace pcw::core {
namespace {

using h5::dtype_of;

/// Per-(field, rank) prediction message exchanged in the all-gather.
struct PredMsg {
  std::uint64_t predicted_bytes = 0;
  double predicted_ratio = 1.0;
  std::uint64_t elem_count = 0;
};
static_assert(std::is_trivially_copyable_v<PredMsg>);

template <typename T>
RankReport run_no_compression(mpi::Comm& comm, h5::File& file,
                              std::span<const FieldSpec<T>> fields) {
  RankReport report;
  util::Timer total;
  util::Timer phase;
  for (const auto& field : fields) {
    h5::write_contiguous<T>(comm, file, field.name, field.local, field.global_dims);
    report.raw_bytes += field.local.size_bytes();
  }
  report.compressed_bytes = report.raw_bytes;
  report.write_seconds = phase.seconds();
  report.total_seconds = total.seconds();
  report.order = identity_order(fields.size());
  return report;
}

template <typename T>
RankReport run_filter_collective(mpi::Comm& comm, h5::File& file,
                                 std::span<const FieldSpec<T>> fields,
                                 const EngineConfig& config) {
  // H5Z-SZ semantics: the write of the shared file cannot start until all
  // compressed sizes are known. Each dataset is compressed and written
  // collectively in sequence; within one dataset the phases are already
  // serialized by write_filtered_collective.
  RankReport report;
  util::Timer total;
  for (const auto& field : fields) {
    sz::Params params = field.params;
    params.threads = config.compress_threads;
    h5::SzFilter filter(params);
    const h5::FilterWriteStats stats = h5::write_filtered_collective<T>(
        comm, file, field.name, field.local, field.local_dims, field.global_dims,
        filter);
    report.compress_seconds += stats.compress_seconds;
    report.exchange_seconds += stats.exchange_seconds;
    report.write_seconds += stats.write_seconds;
    report.compressed_bytes += stats.compressed_bytes;
    report.raw_bytes += field.local.size_bytes();
  }
  report.reserved_bytes = report.compressed_bytes;  // filter path wastes nothing
  report.total_seconds = total.seconds();
  report.order = identity_order(fields.size());
  return report;
}

template <typename T>
RankReport run_overlap(mpi::Comm& comm, h5::File& file,
                       std::span<const FieldSpec<T>> fields,
                       const EngineConfig& config, bool reorder) {
  RankReport report;
  util::Timer total;
  const std::size_t nfields = fields.size();
  const auto nranks = static_cast<std::size_t>(comm.size());
  const auto my_rank = static_cast<std::size_t>(comm.rank());

  // --- Phase 1: prediction (ratio, compression time, write time). -------
  std::vector<PredMsg> my_preds(nfields);
  std::vector<ScheduledTask> tasks(nfields);
  {
    util::trace::StageTimer stage("predict", "engine", "fields", nfields);
    for (std::size_t f = 0; f < nfields; ++f) {
      const auto est = model::estimate_ratio<T>(fields[f].local, fields[f].local_dims,
                                                fields[f].params);
      const double raw_bytes = static_cast<double>(fields[f].local.size_bytes());
      my_preds[f].predicted_bytes = predicted_bytes_for(est.bit_rate, fields[f].local.size());
      my_preds[f].predicted_ratio = est.ratio;
      my_preds[f].elem_count = fields[f].local.size();
      tasks[f].comp_seconds =
          model::kSummitCompressionModel.predict_time(raw_bytes, est.bit_rate);
      tasks[f].write_seconds = model::kSummitWriteModel.predict_time(
          static_cast<double>(my_preds[f].predicted_bytes));
      report.raw_bytes += fields[f].local.size_bytes();
    }
    report.predict_seconds = stage.seconds();
  }

  // --- Phase 2: one all-gather distributes every prediction. ------------
  std::vector<std::vector<PredMsg>> all_preds;
  {
    util::trace::StageTimer stage("exchange", "engine");
    all_preds = comm.allgatherv<PredMsg>(my_preds);
    report.exchange_seconds = stage.seconds();
  }

  // --- Phase 3: identical offset planning on every rank. ----------------
  std::vector<std::vector<PartitionPrediction>> predictions(
      nfields, std::vector<PartitionPrediction>(nranks));
  for (std::size_t r = 0; r < nranks; ++r) {
    if (all_preds[r].size() != nfields) {
      throw std::runtime_error("engine: rank disagreement on field count");
    }
    for (std::size_t f = 0; f < nfields; ++f) {
      predictions[f][r].predicted_bytes = all_preds[r][f].predicted_bytes;
      predictions[f][r].predicted_ratio = all_preds[r][f].predicted_ratio;
    }
  }
  const WritePlan plan = plan_write(predictions, config.rspace);
  const std::uint64_t base = file.alloc_collective(comm, plan.total_bytes);
  for (std::size_t f = 0; f < nfields; ++f) {
    report.reserved_bytes += plan.slots[f][my_rank].reserved_bytes;
  }

  // --- Phase 4: compression-order optimization (Algorithm 1). -----------
  report.order = reorder ? optimize_order(tasks) : identity_order(nfields);

  // --- Phase 5: compress/async-write pipeline. ---------------------------
  std::vector<std::uint64_t> my_actuals(nfields);
  std::vector<std::vector<std::uint8_t>> overflow_tails(nfields);
  std::vector<h5::WriteTicket> tickets;
  tickets.reserve(nfields);
  double compress_accum = 0.0;
  for (const int fi : report.order) {
    const auto f = static_cast<std::size_t>(fi);
    std::vector<std::uint8_t> blob;
    {
      util::trace::StageTimer stage("compress", "engine", "field", f);
      sz::Params comp_params = fields[f].params;
      comp_params.threads = config.compress_threads;
      blob = sz::compress<T>(fields[f].local, fields[f].local_dims, comp_params);
      compress_accum += stage.seconds();
    }

    const PartitionSlot& slot = plan.slots[f][my_rank];
    my_actuals[f] = blob.size();
    report.compressed_bytes += blob.size();
    if (blob.size() > slot.reserved_bytes) {
      // Overflow: the slot takes what fits; the excess is appended after
      // the main wave (§III-D) where plan_overflow places it.
      overflow_tails[f].assign(blob.begin() + static_cast<std::ptrdiff_t>(slot.reserved_bytes),
                               blob.end());
      blob.resize(slot.reserved_bytes);
    }
    tickets.push_back(file.async_write(base + slot.offset, std::move(blob)));
  }
  report.compress_seconds = compress_accum;

  // Exposed write tail: from the end of the last compression to the last
  // byte of this rank's async queue landing.
  {
    util::trace::StageTimer stage("write_exposed", "engine", "tickets",
                                  tickets.size());
    for (const auto& ticket : tickets) ticket.wait();
    report.write_seconds = stage.seconds();
  }

  // --- Phase 6: outcome gather + overflow tail appends. -----------------
  std::vector<std::vector<std::uint64_t>> actual_bytes(nfields,
                                                       std::vector<std::uint64_t>(nranks));
  OverflowPlan overflow;
  std::uint64_t overflow_base = 0;
  {
    util::trace::StageTimer stage("overflow", "engine");
    const auto all_actuals = comm.allgatherv<std::uint64_t>(my_actuals);
    for (std::size_t r = 0; r < nranks; ++r) {
      for (std::size_t f = 0; f < nfields; ++f) actual_bytes[f][r] = all_actuals[r][f];
    }
    overflow = plan_overflow(plan, actual_bytes);
    if (overflow.total_bytes > 0) {
      overflow_base = file.alloc_collective(comm, overflow.total_bytes);
      for (std::size_t f = 0; f < nfields; ++f) {
        if (!overflow_tails[f].empty()) {
          file.pwrite(overflow_base + overflow.parts[f][my_rank].tail_offset,
                      overflow_tails[f]);
        }
      }
    }
    report.overflow_seconds = stage.seconds();
  }
  for (std::size_t f = 0; f < nfields; ++f) {
    report.overflow_partitions += overflow.parts[f][my_rank].tail_bytes > 0 ? 1 : 0;
  }
  report.overflow_bytes = overflow.rank_tail_bytes[my_rank];

  // --- Phase 7: metadata registration (rank 0). --------------------------
  if (comm.rank() == 0) {
    for (std::size_t f = 0; f < nfields; ++f) {
      h5::DatasetDesc desc;
      desc.name = fields[f].name;
      desc.dtype = dtype_of<T>();
      desc.global_dims = fields[f].global_dims;
      desc.layout = h5::Layout::kPartitioned;
      desc.filter = h5::FilterId::kSz;
      desc.abs_error_bound = fields[f].params.error_bound;
      std::uint64_t elem_cursor = 0;
      for (std::size_t r = 0; r < nranks; ++r) {
        const PartitionOverflow& ovf = overflow.parts[f][r];
        h5::PartitionRecord part;
        part.rank = static_cast<std::uint32_t>(r);
        part.elem_offset = elem_cursor;
        part.elem_count = all_preds[r][f].elem_count;
        elem_cursor += part.elem_count;
        part.file_offset = base + plan.slots[f][r].offset;
        part.reserved_bytes = plan.slots[f][r].reserved_bytes;
        part.actual_bytes = actual_bytes[f][r];
        part.overflow_bytes = ovf.tail_bytes;
        if (ovf.tail_bytes > 0) part.overflow_offset = overflow_base + ovf.tail_offset;
        desc.partitions.push_back(part);
      }
      if (elem_cursor != fields[f].global_dims.count()) {
        throw std::runtime_error("engine: slice counts do not cover " + fields[f].name);
      }
      file.add_dataset(std::move(desc));
    }
  }
  comm.barrier();
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace

const char* to_string(WriteMode mode) {
  switch (mode) {
    case WriteMode::kNoCompression: return "no-compression";
    case WriteMode::kFilterCollective: return "filter-collective";
    case WriteMode::kOverlap: return "overlap";
    case WriteMode::kOverlapReorder: return "overlap+reorder";
  }
  return "?";
}

template <typename T>
RankReport write_fields(mpi::Comm& comm, h5::File& file,
                        std::span<const FieldSpec<T>> fields,
                        const EngineConfig& config) {
  if (fields.empty()) throw std::invalid_argument("engine: no fields");
  util::metrics::Registry::get().engine_writes.add();
  switch (config.mode) {
    case WriteMode::kNoCompression:
      return run_no_compression<T>(comm, file, fields);
    case WriteMode::kFilterCollective:
      return run_filter_collective<T>(comm, file, fields, config);
    case WriteMode::kOverlap:
      return run_overlap<T>(comm, file, fields, config, /*reorder=*/false);
    case WriteMode::kOverlapReorder:
      return run_overlap<T>(comm, file, fields, config, /*reorder=*/true);
  }
  throw std::invalid_argument("engine: unknown mode");
}

template RankReport write_fields<float>(mpi::Comm&, h5::File&,
                                        std::span<const FieldSpec<float>>,
                                        const EngineConfig&);
template RankReport write_fields<double>(mpi::Comm&, h5::File&,
                                         std::span<const FieldSpec<double>>,
                                         const EngineConfig&);

}  // namespace pcw::core

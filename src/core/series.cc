#include "core/series.h"

#include <algorithm>
#include <stdexcept>

#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace pcw::core {
namespace {

/// Per-(field, rank) metadata gathered after a step's write wave.
struct SeriesPartMsg {
  std::uint64_t elem_count = 0;
  std::uint64_t file_offset = 0;
  std::uint64_t bytes = 0;
};
static_assert(std::is_trivially_copyable_v<SeriesPartMsg>);

/// One field's resolved restart chain: the datasets from the nearest
/// keyframe (inclusive) to the requested step, plus the region selection
/// planned once and reused for every link (the layout is validated
/// identical along the chain).
struct ChainPlan {
  std::vector<const h5::DatasetDesc*> chain;  // keyframe first, target last
  h5::RegionSelection sel;
};

ChainPlan plan_chain(const h5::File& file, const std::string& base, std::uint32_t step,
                     const std::optional<sz::Region>& region_opt) {
  const h5::DatasetDesc* desc = file.find_series(base, step);
  if (desc == nullptr) {
    throw std::invalid_argument("series: no step " + std::to_string(step) + " of " +
                                base);
  }
  std::vector<const h5::DatasetDesc*> rev{desc};
  while (!rev.back()->is_keyframe()) {
    const h5::DatasetDesc* cur = rev.back();
    const h5::DatasetDesc* ref = file.find_series(base, cur->series_ref_step);
    if (ref == nullptr) {
      throw std::runtime_error("series: missing reference step " +
                               std::to_string(cur->series_ref_step) + " of " + base);
    }
    // parse_footer forbids ref > step, so ref < cur holds here and the
    // walk strictly descends — no cycle guard needed beyond this check.
    if (ref->series_step >= cur->series_step) {
      throw std::runtime_error("series: malformed reference chain for " + base);
    }
    rev.push_back(ref);
  }

  ChainPlan plan;
  plan.chain.assign(rev.rbegin(), rev.rend());
  const h5::DatasetDesc* last = plan.chain.back();
  for (const h5::DatasetDesc* d : plan.chain) {
    if (d->layout != h5::Layout::kPartitioned || d->filter != h5::FilterId::kSz) {
      throw std::runtime_error("series: step " + d->name +
                               " is not an sz-partitioned dataset");
    }
    if (d->dtype != last->dtype || !(d->global_dims == last->global_dims) ||
        d->partitions.size() != last->partitions.size()) {
      throw std::runtime_error("series: layout changed along the chain of " + base);
    }
    for (std::size_t p = 0; p < d->partitions.size(); ++p) {
      if (d->partitions[p].elem_offset != last->partitions[p].elem_offset ||
          d->partitions[p].elem_count != last->partitions[p].elem_count) {
        throw std::runtime_error("series: partitioning changed along the chain of " +
                                 base);
      }
    }
  }
  const sz::Region region = region_opt.value_or(sz::Region::of(last->global_dims));
  plan.sel = h5::plan_region_selection(*last, region);
  return plan;
}

/// Decode failure pinned to one link of a restart chain, so the degraded
/// fallback can tell a corrupt delta step (recoverable from the keyframe)
/// from a corrupt keyframe (not). Still a runtime_error whose what()
/// names dataset, partition and block for callers that let it escape.
class ChainLinkError : public std::runtime_error {
 public:
  ChainLinkError(std::size_t link, std::size_t partition, const std::string& what)
      : std::runtime_error(what), link_(link), partition_(partition) {}
  std::size_t link() const { return link_; }
  std::size_t partition() const { return partition_; }

 private:
  std::size_t link_;
  std::size_t partition_;
};

/// Chain-decodes one field's selection into `out` (sel.elements
/// elements), fetching each link's payload as it decodes.
template <typename T>
void decode_chain(const h5::File& file, const ChainPlan& plan, unsigned threads,
                  sz::VerifyMode verify, std::span<T> out, SeriesReadReport& report) {
  const h5::RegionSelection& sel = plan.sel;
  const std::size_t n_links = plan.chain.size();
  report.steps_chained = std::max<std::uint64_t>(report.steps_chained, n_links);

  for (const h5::PartitionSelection& ps : sel.parts) {
    const h5::PartitionRecord& part = plan.chain.back()->partitions[ps.part_index];

    h5::DecodeBox box;
    std::vector<T> buf;  // the chain's running reconstruction over box.cover
    for (std::size_t s = 0; s < n_links; ++s) {
      std::vector<std::uint8_t> payload;
      {
        util::trace::StageTimer stage("read", "series", "link", s);
        payload = h5::read_selection_payload(file, *plan.chain[s], ps);
        report.read_seconds += stage.seconds();
      }
      report.bytes_read += payload.size();

      util::trace::StageTimer decode_stage("decode", "series", "link", s);
      const std::string where = "dataset '" + plan.chain[s]->name + "' partition " +
                                std::to_string(ps.part_index) + ": ";
      sz::Dims stored;
      try {
        stored = sz::inspect(payload).dims;
      } catch (const std::exception& e) {
        throw ChainLinkError(s, ps.part_index, where + e.what());
      }
      if (s == 0) {
        const std::optional<h5::DecodeBox> found = h5::decode_box(part, ps, stored);
        if (!found) {
          throw std::runtime_error(where + "partition extents disagree with blob");
        }
        box = *found;
      } else if (!(stored == box.local_dims)) {
        throw std::runtime_error(where + "partition extents changed along the chain");
      }
      sz::RegionDecodeStats dstats;
      try {
        buf = sz::decompress_region<T>(payload, box.cover, std::span<const T>(buf), threads,
                                       &dstats, verify);
      } catch (const std::exception& e) {
        // Chain decode failures name the failing link, not just "series".
        throw ChainLinkError(s, ps.part_index, where + e.what());
      }
      report.blocks_total += dstats.blocks_total;
      report.blocks_decoded += dstats.blocks_decoded;
      report.decompress_seconds += decode_stage.seconds();
      util::metrics::Registry::get().chain_links_decoded.add();
    }
    h5::scatter_rows<T>(ps, box, buf, out);
  }
  report.elements_out += sel.elements;
}

/// Degraded fallback: re-decodes the *whole field* at the chain's
/// keyframe step (chain length 1) and records the downgrade. The
/// selection re-uses the broken chain's plan, valid because plan_chain
/// verified the layout identical along the chain.
template <typename T>
void decode_keyframe_fallback(const h5::File& file, const ChainPlan& plan,
                              const ChainLinkError& err, std::uint32_t step,
                              unsigned threads, sz::VerifyMode verify, std::span<T> out,
                              SeriesReadReport& report) {
  const h5::DatasetDesc* keyframe = plan.chain.front();
  util::metrics::Registry::get().degraded_reads.add();
  util::trace::instant("degraded_read", "series", "step", step);
  ChainPlan kplan;
  kplan.chain = {keyframe};
  kplan.sel = plan.sel;
  decode_chain<T>(file, kplan, threads, verify, out, report);
  DegradedRead d;
  d.dataset = plan.chain[err.link()]->name;
  d.partition = err.partition();
  d.step_requested = step;
  d.step_recovered = keyframe->series_step;
  d.detail = err.what();
  report.degraded.push_back(std::move(d));
}

/// One field of a series read: plans its chain, then decodes it, falling
/// back to the keyframe when `config.degraded` allows.
template <typename T>
std::vector<T> read_series_field(const h5::File& file, const std::string& base,
                                 std::uint32_t step, const std::optional<sz::Region>& region,
                                 const SeriesReadConfig& config, SeriesReadReport& report) {
  const ChainPlan plan = plan_chain(file, base, step, region);
  if (plan.chain.back()->dtype != h5::dtype_of<T>()) {
    throw std::runtime_error("series: dtype mismatch for " + base);
  }
  std::vector<T> out(plan.sel.elements);
  try {
    decode_chain<T>(file, plan, config.decompress_threads, config.verify, out, report);
  } catch (const ChainLinkError& e) {
    // A corrupt keyframe (link 0) has nothing older to fall back to.
    if (!config.degraded || e.link() == 0) throw;
    decode_keyframe_fallback<T>(file, plan, e, step, config.decompress_threads,
                                config.verify, out, report);
  }
  return out;
}

}  // namespace

template <typename T>
SeriesWriter<T>::SeriesWriter(h5::File& file, SeriesConfig config)
    : file_(&file), config_(config) {
  if (config_.keyframe_interval == 0) config_.keyframe_interval = 1;
}

template <typename T>
SeriesStepReport SeriesWriter<T>::write_step(mpi::Comm& comm,
                                             std::span<const FieldSpec<T>> fields) {
  if (fields.empty()) throw std::invalid_argument("series: no fields");
  const std::uint32_t step = next_step_;
  if (bases_.empty()) {
    bases_.reserve(fields.size());
    for (const auto& field : fields) bases_.push_back(field.name);
    prev_.resize(fields.size());
  } else if (fields.size() != bases_.size()) {
    throw std::invalid_argument("series: field set changed mid-series");
  } else {
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (fields[f].name != bases_[f]) {
        throw std::invalid_argument("series: field set changed mid-series");
      }
    }
  }
  const bool keyframe = is_keyframe_step(step, config_.keyframe_interval);

  SeriesStepReport report;
  report.step = step;
  report.keyframe = keyframe;
  util::Timer total;
  util::trace::Span step_span("step", "series", "step", step);
  util::metrics::Registry::get().series_steps.add();

  // Compress/async-write pipeline: each blob is handed to the background
  // I/O queue the moment it exists, so the next field's compression
  // overlaps the write (the Fig.-3 schedule, with exact offsets from the
  // atomic cursor instead of predicted ones — a step's sizes are known
  // rank-locally before any byte moves, so no slack and no exchange).
  //
  // The reconstructions are staged in `recons` and committed to prev_
  // only after the whole step succeeded (payloads durable AND metadata
  // registered): if anything throws mid-step, the writer's reference
  // state still describes the last completed step (already-written blobs
  // are unreachable without their metadata, so a retried step stays
  // bound-correct).
  std::vector<SeriesPartMsg> my(fields.size());
  std::vector<std::vector<T>> recons(fields.size());
  std::vector<h5::WriteTicket> tickets;
  tickets.reserve(fields.size());
  double compress_accum = 0.0;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const FieldSpec<T>& field = fields[f];
    sz::Params params = field.params;
    params.threads = config_.compress_threads;
    params.predictor = keyframe ? sz::Predictor::kSpatial : sz::Predictor::kTemporal;
    if (!keyframe && prev_[f].size() != field.local.size()) {
      throw std::invalid_argument("series: field shape changed mid-series");
    }
    std::vector<std::uint8_t> blob;
    {
      util::trace::StageTimer stage("compress", "series", "field", f);
      blob = sz::compress<T>(
          field.local, field.local_dims, params,
          keyframe ? std::span<const T>{} : std::span<const T>(prev_[f]), &recons[f]);
      compress_accum += stage.seconds();
    }

    const sz::HeaderInfo info = sz::inspect(blob);
    report.temporal_blocks += info.temporal_blocks;
    report.spatial_blocks += info.block_count - info.temporal_blocks;
    report.raw_bytes += field.local.size_bytes();
    report.compressed_bytes += blob.size();

    my[f].elem_count = field.local.size();
    my[f].bytes = blob.size();
    my[f].file_offset = file_->alloc(blob.size());
    tickets.push_back(file_->async_write(my[f].file_offset, std::move(blob)));
  }
  report.compress_seconds = compress_accum;

  {
    util::trace::StageTimer stage("write_exposed", "series", "tickets",
                                  tickets.size());
    for (const h5::WriteTicket& ticket : tickets) ticket.wait();
    report.write_seconds = stage.seconds();
  }

  // Metadata: one allgatherv carries every field's partition record.
  const auto all = comm.allgatherv<SeriesPartMsg>(my);
  if (comm.rank() == 0) {
    const auto nranks = static_cast<std::size_t>(comm.size());
    for (std::size_t f = 0; f < fields.size(); ++f) {
      h5::DatasetDesc desc;
      desc.name = h5::series_dataset_name(bases_[f], step);
      desc.dtype = h5::dtype_of<T>();
      desc.global_dims = fields[f].global_dims;
      desc.layout = h5::Layout::kPartitioned;
      desc.filter = h5::FilterId::kSz;
      desc.abs_error_bound = fields[f].params.error_bound;
      desc.series_member = true;
      desc.series_base = bases_[f];
      desc.series_step = step;
      desc.series_ref_step = keyframe ? step : step - 1;
      std::uint64_t elem_cursor = 0;
      for (std::size_t r = 0; r < nranks; ++r) {
        if (all[r].size() != fields.size()) {
          throw std::runtime_error("series: rank disagreement on field count");
        }
        h5::PartitionRecord part;
        part.rank = static_cast<std::uint32_t>(r);
        part.elem_offset = elem_cursor;
        part.elem_count = all[r][f].elem_count;
        part.file_offset = all[r][f].file_offset;
        part.reserved_bytes = all[r][f].bytes;
        part.actual_bytes = all[r][f].bytes;
        elem_cursor += part.elem_count;
        desc.partitions.push_back(part);
      }
      if (elem_cursor != fields[f].global_dims.count()) {
        throw std::runtime_error("series: slice counts do not cover " + bases_[f]);
      }
      file_->add_dataset(std::move(desc));
    }
  }
  comm.barrier();
  if (config_.commit_every_step) file_->commit_collective(comm);
  // The step is fully committed (payloads durable, metadata registered):
  // only now do the reconstructions become the next temporal references,
  // together with the step counter.
  for (std::size_t f = 0; f < fields.size(); ++f) prev_[f] = std::move(recons[f]);
  report.total_seconds = total.seconds();
  ++next_step_;
  return report;
}

template <typename T>
std::vector<std::vector<T>> read_series(mpi::Comm& comm, const h5::File& file,
                                        std::span<const ReadSpec> specs,
                                        std::uint32_t step,
                                        const SeriesReadConfig& config,
                                        SeriesReadReport* report_out) {
  if (specs.empty()) throw std::invalid_argument("series: no fields");
  SeriesReadReport report;
  util::Timer total;
  std::vector<std::vector<T>> results;
  results.reserve(specs.size());
  for (const ReadSpec& spec : specs) {
    results.push_back(
        read_series_field<T>(file, spec.name, step, spec.region, config, report));
  }
  comm.barrier();
  report.total_seconds = total.seconds();
  if (report_out != nullptr) *report_out = report;
  return results;
}

template <typename T>
std::vector<T> restart_at_step(const h5::File& file, const std::string& field,
                               std::uint32_t step,
                               const std::optional<sz::Region>& region,
                               const SeriesReadConfig& config,
                               SeriesReadReport* report_out) {
  SeriesReadReport report;
  util::Timer total;
  std::vector<T> out = read_series_field<T>(file, field, step, region, config, report);
  report.total_seconds = total.seconds();
  if (report_out != nullptr) *report_out = report;
  return out;
}

template class SeriesWriter<float>;
template class SeriesWriter<double>;
template std::vector<std::vector<float>> read_series<float>(
    mpi::Comm&, const h5::File&, std::span<const ReadSpec>, std::uint32_t,
    const SeriesReadConfig&, SeriesReadReport*);
template std::vector<std::vector<double>> read_series<double>(
    mpi::Comm&, const h5::File&, std::span<const ReadSpec>, std::uint32_t,
    const SeriesReadConfig&, SeriesReadReport*);
template std::vector<float> restart_at_step<float>(const h5::File&, const std::string&,
                                                   std::uint32_t,
                                                   const std::optional<sz::Region>&,
                                                   const SeriesReadConfig&,
                                                   SeriesReadReport*);
template std::vector<double> restart_at_step<double>(const h5::File&, const std::string&,
                                                     std::uint32_t,
                                                     const std::optional<sz::Region>&,
                                                     const SeriesReadConfig&,
                                                     SeriesReadReport*);

}  // namespace pcw::core

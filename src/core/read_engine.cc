#include "core/read_engine.h"

#include <stdexcept>

#include "util/timer.h"
#include "util/trace.h"

namespace pcw::core {

template <typename T>
std::vector<std::vector<T>> read_fields(mpi::Comm& comm, const h5::File& file,
                                        std::span<const ReadSpec> specs,
                                        const ReadEngineConfig& config,
                                        ReadReport* report_out) {
  if (specs.empty()) throw std::invalid_argument("read: no fields");
  ReadReport report;
  util::Timer total;

  std::vector<FieldReadPlan> plans;
  {
    util::trace::StageTimer stage("plan", "read", "fields", specs.size());
    plans = plan_read(file, specs);
    for (const FieldReadPlan& plan : plans) {
      if (plan.desc->dtype != h5::dtype_of<T>()) {
        throw std::runtime_error("read: dtype mismatch for " + plan.desc->name);
      }
    }
    report.plan_seconds = stage.seconds();
  }

  h5::RegionReadStats stats;
  std::vector<std::vector<T>> results(plans.size());
  for (std::size_t f = 0; f < plans.size(); ++f) {
    const FieldReadPlan& plan = plans[f];
    results[f].resize(plan.selection.elements);
    report.elements_out += plan.selection.elements;
    h5::read_selection<T>(file, *plan.desc, plan.selection, config.decompress_threads,
                          config.verify, results[f], &stats);
  }

  report.read_seconds = stats.read_seconds;
  report.decompress_seconds = stats.decode_seconds;
  report.bytes_read = stats.payload_bytes;
  report.partitions_total = stats.partitions_total;
  report.partitions_read = stats.partitions_read;
  report.blocks_total = stats.blocks_total;
  report.blocks_decoded = stats.blocks_decoded;
  comm.barrier();
  report.total_seconds = total.seconds();
  if (report_out != nullptr) *report_out = report;
  return results;
}

template std::vector<std::vector<float>> read_fields<float>(mpi::Comm&, const h5::File&,
                                                            std::span<const ReadSpec>,
                                                            const ReadEngineConfig&,
                                                            ReadReport*);
template std::vector<std::vector<double>> read_fields<double>(mpi::Comm&, const h5::File&,
                                                              std::span<const ReadSpec>,
                                                              const ReadEngineConfig&,
                                                              ReadReport*);

}  // namespace pcw::core

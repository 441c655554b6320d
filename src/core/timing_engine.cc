#include "core/timing_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcw::core {
namespace {

/// Prediction-phase cost as a fraction of a rank's compression time: the
/// ratio model's measured overhead (<10% per the paper, ~3% here).
constexpr double kPredictFraction = 0.03;

void validate(const std::vector<std::vector<PartitionProfile>>& profiles) {
  if (profiles.empty() || profiles[0].empty()) {
    throw std::invalid_argument("timing: empty profile matrix");
  }
  for (const auto& rank : profiles) {
    if (rank.size() != profiles[0].size()) {
      throw std::invalid_argument("timing: ragged profile matrix");
    }
  }
}

Breakdown simulate_no_compression(const iosim::Platform& platform,
                                  const std::vector<std::vector<PartitionProfile>>& profiles) {
  Breakdown b;
  std::vector<iosim::WriteJob> jobs;
  int chain = 0;
  for (const auto& rank : profiles) {
    for (const auto& part : rank) {
      iosim::WriteJob job;
      job.arrival = 0.0;
      job.bytes = part.raw_bytes;
      job.proc = chain;
      job.chain = chain;  // one async lane per process
      jobs.push_back(job);
      b.raw_bytes += part.raw_bytes;
    }
    ++chain;
  }
  const auto result = simulate_independent(platform, jobs);
  b.write_exposed = result.makespan;
  b.total = result.makespan + platform.sync_cost(static_cast<int>(profiles.size()));
  b.ideal_compressed_bytes = b.raw_bytes;
  b.storage_bytes = b.raw_bytes;
  return b;
}

Breakdown simulate_filter_collective(const iosim::Platform& platform,
                                     const std::vector<std::vector<PartitionProfile>>& profiles) {
  // H5Z-SZ path: every rank compresses all fields; the collective write of
  // the shared file starts only when all compressed sizes are known.
  Breakdown b;
  const int nprocs = static_cast<int>(profiles.size());
  const std::size_t nfields = profiles[0].size();
  double comp_end = 0.0;
  for (const auto& rank : profiles) {
    double rank_comp = 0.0;
    for (const auto& part : rank) {
      rank_comp += part.comp_seconds;
      b.raw_bytes += part.raw_bytes;
      b.ideal_compressed_bytes += part.actual_bytes;
    }
    comp_end = std::max(comp_end, rank_comp);
  }
  b.compress = comp_end;
  b.exchange = platform.allgather_cost(nprocs);

  double t = comp_end + b.exchange;
  for (std::size_t f = 0; f < nfields; ++f) {
    std::vector<double> bytes(profiles.size());
    for (std::size_t r = 0; r < profiles.size(); ++r) {
      bytes[r] = profiles[r][f].actual_bytes;
    }
    t = simulate_collective(platform, t, bytes);
  }
  b.write_exposed = t - comp_end - b.exchange;
  b.total = t;
  b.storage_bytes = b.ideal_compressed_bytes;
  return b;
}

Breakdown simulate_overlap(const iosim::Platform& platform,
                           const std::vector<std::vector<PartitionProfile>>& profiles,
                           const TimingConfig& config, bool reorder) {
  Breakdown b;
  const int nprocs = static_cast<int>(profiles.size());
  const std::size_t nranks = profiles.size();
  const std::size_t nfields = profiles[0].size();

  // Phase 1+2: prediction on each rank, then one all-gather. Ranks enter
  // the all-gather when their prediction ends; it completes for everyone
  // at max(predict) + allgather cost.
  double predict_max = 0.0;
  for (const auto& rank : profiles) {
    double rank_comp = 0.0;
    for (const auto& part : rank) rank_comp += part.comp_seconds;
    predict_max = std::max(predict_max, rank_comp * kPredictFraction);
  }
  b.predict = predict_max;
  b.exchange = platform.allgather_cost(nprocs);
  const double start = predict_max + b.exchange;

  // Phase 3 and the overflow split, planned as the engine plans them.
  std::vector<std::vector<PartitionPrediction>> predictions(
      nfields, std::vector<PartitionPrediction>(nranks));
  std::vector<std::vector<std::uint64_t>> actual_bytes(nfields,
                                                       std::vector<std::uint64_t>(nranks));
  for (std::size_t r = 0; r < nranks; ++r) {
    for (std::size_t f = 0; f < nfields; ++f) {
      const PartitionProfile& part = profiles[r][f];
      predictions[f][r].predicted_bytes = static_cast<std::uint64_t>(part.predicted_bytes);
      predictions[f][r].predicted_ratio = part.predicted_ratio;
      actual_bytes[f][r] = static_cast<std::uint64_t>(part.actual_bytes);
      b.raw_bytes += part.raw_bytes;
      b.ideal_compressed_bytes += part.actual_bytes;
    }
  }
  const WritePlan plan = plan_write(predictions, config.rspace);
  const OverflowPlan overflow = plan_overflow(plan, actual_bytes);
  b.storage_bytes = static_cast<double>(plan.total_bytes + overflow.tail_bytes);
  b.overflow_partitions = overflow.partitions;

  // Phase 4+5: per-rank order + pipeline; writes are independent flows
  // chained per rank (one async queue each). Algorithm 1's write times
  // come from the platform's per-process curve, which is what the paper's
  // offline per-system calibration of Eq. (2) measures.
  std::vector<iosim::WriteJob> jobs;
  double comp_end_global = 0.0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const auto& rank = profiles[r];
    std::vector<ScheduledTask> tasks(nfields);
    for (std::size_t f = 0; f < nfields; ++f) {
      const double bit_rate =
          8.0 * rank[f].predicted_bytes / std::max(1.0, rank[f].elem_count);
      tasks[f].comp_seconds =
          config.comp_model.predict_time(rank[f].raw_bytes, bit_rate);
      const double thr = platform.per_proc_throughput(rank[f].predicted_bytes);
      tasks[f].write_seconds = thr > 0.0 ? rank[f].predicted_bytes / thr : 0.0;
    }
    const std::vector<int> order =
        reorder ? optimize_order(tasks) : identity_order(nfields);

    double t = start;
    for (const int fi : order) {
      const auto f = static_cast<std::size_t>(fi);
      t += rank[f].comp_seconds;  // actual measured compression time
      iosim::WriteJob job;
      job.arrival = t;
      job.bytes = static_cast<double>(overflow.parts[f][r].in_slot_bytes);
      job.proc = static_cast<int>(r);
      job.chain = static_cast<int>(r);
      job.tag = fi;
      jobs.push_back(job);
    }
    comp_end_global = std::max(comp_end_global, t);
  }
  b.compress = comp_end_global - start;

  const auto wave = simulate_independent(platform, jobs);
  const double wave_end = std::max(wave.makespan, comp_end_global);
  b.write_exposed = wave_end - comp_end_global;

  // Phase 6: overflow handling — all-gather of actual sizes, then each
  // overflowing rank appends its adjacent tails as one contiguous write.
  double t_end = wave_end;
  if (overflow.tail_bytes > 0) {
    const double overflow_start = wave_end + platform.allgather_cost(nprocs);
    std::vector<iosim::WriteJob> tail_jobs;
    for (std::size_t r = 0; r < nranks; ++r) {
      if (overflow.rank_tail_bytes[r] == 0) continue;
      iosim::WriteJob job;
      job.arrival = overflow_start;
      job.bytes = static_cast<double>(overflow.rank_tail_bytes[r]);
      job.proc = static_cast<int>(r);
      job.chain = static_cast<int>(r);
      tail_jobs.push_back(job);
    }
    const auto tails = simulate_independent(platform, tail_jobs);
    t_end = std::max(overflow_start, tails.makespan);
    b.overflow = t_end - wave_end;
  } else {
    // The size all-gather still happens (it also carries actual sizes for
    // the metadata), but costs only the collective latency.
    b.overflow = platform.allgather_cost(nprocs);
    t_end += b.overflow;
  }
  b.total = t_end;
  return b;
}

}  // namespace

Breakdown simulate_write(const iosim::Platform& platform,
                         const std::vector<std::vector<PartitionProfile>>& profiles,
                         const TimingConfig& config) {
  validate(profiles);
  switch (config.mode) {
    case WriteMode::kNoCompression:
      return simulate_no_compression(platform, profiles);
    case WriteMode::kFilterCollective:
      return simulate_filter_collective(platform, profiles);
    case WriteMode::kOverlap:
      return simulate_overlap(platform, profiles, config, /*reorder=*/false);
    case WriteMode::kOverlapReorder:
      return simulate_overlap(platform, profiles, config, /*reorder=*/true);
  }
  throw std::invalid_argument("timing: unknown mode");
}

std::vector<std::vector<PartitionProfile>> bootstrap_profiles(
    const std::vector<std::vector<PartitionProfile>>& samples, int nranks,
    util::Rng& rng, double jitter) {
  if (samples.empty()) throw std::invalid_argument("timing: no sample fields");
  const std::size_t nfields = samples.size();
  std::vector<std::vector<PartitionProfile>> out(
      static_cast<std::size_t>(nranks), std::vector<PartitionProfile>(nfields));
  for (int r = 0; r < nranks; ++r) {
    for (std::size_t f = 0; f < nfields; ++f) {
      const auto& pool = samples[f];
      if (pool.empty()) throw std::invalid_argument("timing: empty sample pool");
      const auto pick = pool[rng.uniform_index(pool.size())];
      PartitionProfile p = pick;
      // Multiplicative jitter, correlated between size and time (a
      // harder-to-compress partition is both bigger and slower).
      const double g = std::exp(rng.normal(0.0, jitter));
      p.comp_seconds *= g;
      p.actual_bytes *= g;
      p.predicted_bytes *= g * std::exp(rng.normal(0.0, jitter * 0.4));
      // Eq. (3) decides its boost on the ratio the jittered size implies.
      p.predicted_ratio = p.raw_bytes / p.predicted_bytes;
      out[static_cast<std::size_t>(r)][f] = p;
    }
  }
  return out;
}

void scale_profiles(std::vector<std::vector<PartitionProfile>>& profiles,
                    double factor) {
  if (factor <= 0.0) throw std::invalid_argument("timing: scale factor must be > 0");
  for (auto& rank : profiles) {
    for (auto& p : rank) {
      p.raw_bytes *= factor;
      p.elem_count *= factor;
      p.comp_seconds *= factor;
      p.actual_bytes *= factor;
      p.predicted_bytes *= factor;
    }
  }
}

}  // namespace pcw::core

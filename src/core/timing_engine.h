// Timing engine: plays the four write schedules of Fig. 4 against the
// iosim platform model at arbitrary scale (256..4096+ processes).
//
// The *functional* engine (engine.h) proves correctness end-to-end on
// real threads and a real file; this engine answers the paper's
// performance questions, which depend on a parallel file system we do not
// have. Inputs are per-(rank, field) partition profiles whose compression
// times/sizes come from *measured* compressions of the same synthetic
// data (bootstrap-resampled to the target scale), so the compute side is
// empirical and only the I/O side is modeled. Slot sizes and overflow
// tails come from the same planner (planner.h) the functional engine
// writes with, so both count the same bytes.
#pragma once

#include <vector>

#include "core/engine.h"
#include "iosim/platform.h"
#include "iosim/simulator.h"
#include "model/throughput_model.h"
#include "util/rng.h"

namespace pcw::core {

/// One partition (one rank x one field) as the timing engine sees it.
struct PartitionProfile {
  double raw_bytes = 0.0;
  double elem_count = 0.0;
  double comp_seconds = 0.0;      // measured compression time
  double actual_bytes = 0.0;      // measured compressed size
  double predicted_bytes = 0.0;   // ratio-model prediction (predicted_bytes_for)
  double predicted_ratio = 1.0;
};

struct TimingConfig {
  WriteMode mode = WriteMode::kOverlapReorder;
  double rspace = model::kDefaultRspace;
  /// Eq. (1) model for Algorithm 1's compression times (benches calibrate
  /// it to the host); write times come from the platform's curve.
  model::CompressionThroughputModel comp_model = model::kSummitCompressionModel;
};

/// Phase breakdown in the paper's Fig.-16 reading: `compress` is the
/// slowest rank's total compression; `write_exposed` is the time between
/// the end of the slowest compression and the end of the write wave;
/// `overflow` covers the post-wave all-gather + tail appends.
struct Breakdown {
  double predict = 0.0;
  double exchange = 0.0;
  double compress = 0.0;
  double write_exposed = 0.0;
  double overflow = 0.0;
  double total = 0.0;

  double raw_bytes = 0.0;
  double ideal_compressed_bytes = 0.0;  // sum of actual compressed sizes
  double storage_bytes = 0.0;           // slots + overflow tails on disk
  int overflow_partitions = 0;
};

/// profiles[rank][field]; every rank must have the same field count.
Breakdown simulate_write(const iosim::Platform& platform,
                         const std::vector<std::vector<PartitionProfile>>& profiles,
                         const TimingConfig& config);

/// Bootstrap helper: replicates measured per-field samples across
/// `nranks` ranks with multiplicative jitter, preserving each field's
/// empirical spread. samples[field] holds >= 1 measured profiles.
std::vector<std::vector<PartitionProfile>> bootstrap_profiles(
    const std::vector<std::vector<PartitionProfile>>& samples, int nranks,
    util::Rng& rng, double jitter = 0.08);

/// Linearly scales every profile by `factor` (sizes, counts and times):
/// benches measure small sample partitions for speed, then scale to the
/// paper's per-process partition sizes (e.g. 256^3 = 64 MiB). Valid
/// because compression cost and size are ~linear in input bytes.
void scale_profiles(std::vector<std::vector<PartitionProfile>>& profiles, double factor);

}  // namespace pcw::core

// pcw::core::write_fields — the paper's parallel-write engine, running
// for real on the simulated-MPI runtime and the h5lite shared file.
//
// Four modes, matching Fig. 4:
//   kNoCompression     (1) independent writes of raw data
//   kFilterCollective  (2) H5Z-SZ-style: compress, exchange sizes, then
//                          collective write (compression/write serialized)
//   kOverlap           (3) predictive: offsets pre-computed from the ratio
//                          model + extra space; compression of field k
//                          overlaps the asynchronous write of field k-1
//   kOverlapReorder    (4) (3) plus Algorithm-1 compression reordering
//
// The overlap path follows Fig. 3 exactly (docs/write_path.md): predict
// -> all-gather predictions -> plan_write on every rank -> per-rank
// reorder -> compress/async-write pipeline -> plan_overflow + tail
// appends -> metadata registration.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/planner.h"
#include "core/scheduler.h"
#include "h5/dataset_io.h"
#include "h5/file.h"
#include "model/extra_space.h"
#include "model/ratio_model.h"
#include "model/throughput_model.h"
#include "mpi/comm.h"
#include "sz/compressor.h"

namespace pcw::core {

enum class WriteMode {
  kNoCompression = 0,
  kFilterCollective = 1,
  kOverlap = 2,
  kOverlapReorder = 3,
};

const char* to_string(WriteMode mode);

/// One field (dataset) as seen by one rank.
template <typename T>
struct FieldSpec {
  std::string name;
  std::span<const T> local;    // this rank's slice, flattened
  sz::Dims local_dims;         // extents of the slice (for the predictor)
  sz::Dims global_dims;        // logical global extents
  sz::Params params;           // error bound for this field
};

struct EngineConfig {
  WriteMode mode = WriteMode::kOverlapReorder;
  /// Extra-space ratio R_space (§III-D); Eq. (3) boost applied per
  /// partition automatically.
  double rspace = model::kDefaultRspace;
  /// Worker threads for each partition's sz compress/decompress (overrides
  /// every FieldSpec's Params::threads): 1 = serial, 0 = all hardware
  /// threads, N = exactly N. Blob bytes are identical for every value.
  unsigned compress_threads = 1;
};

/// Per-rank outcome and phase timings (wall-clock, this rank).
struct RankReport {
  double predict_seconds = 0.0;    // ratio/throughput prediction
  double exchange_seconds = 0.0;   // all-gather of predictions
  double compress_seconds = 0.0;   // sum over fields (serial)
  double write_seconds = 0.0;      // exposed write tail after last compress
  double overflow_seconds = 0.0;   // overflow gather + append
  double total_seconds = 0.0;

  std::uint64_t raw_bytes = 0;
  std::uint64_t compressed_bytes = 0;  // actual payload bytes (this rank)
  std::uint64_t reserved_bytes = 0;    // slot bytes (this rank)
  std::uint64_t overflow_bytes = 0;
  int overflow_partitions = 0;
  std::vector<int> order;              // compression order used
};

/// Writes all fields through the selected mode. Collective: every rank of
/// `comm` must call with the same field names/global dims/config. Dataset
/// metadata is registered; the caller closes the file.
template <typename T>
RankReport write_fields(mpi::Comm& comm, h5::File& file,
                        std::span<const FieldSpec<T>> fields,
                        const EngineConfig& config);

}  // namespace pcw::core

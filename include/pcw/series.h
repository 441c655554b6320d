// pcw public API — the time-series engine.
//
// SeriesWriter appends one checkpoint step per write_step call, keeping
// each field's decoded previous step as the temporal reference and
// inserting spatial keyframes every K steps. restart()/read_series()
// reconstruct any step by chain-decoding from the nearest keyframe,
// fetching whole-chain payloads asynchronously and entropy-decoding only
// the blocks a sparse request touches — at every link of the chain.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pcw/reader.h"
#include "pcw/runtime.h"
#include "pcw/status.h"
#include "pcw/types.h"
#include "pcw/writer.h"

namespace pcw {

struct SeriesOptions {
  /// K: a spatial keyframe every K steps (step 0 always is one). K=1
  /// disables the temporal predictor; larger K trades restart chain
  /// length for compression ratio.
  std::uint32_t keyframe_interval = 8;
  /// Worker threads per step compression (0 = all hardware threads).
  unsigned compress_threads = 1;
  /// true: every write_step ends with a crash-consistent commit, bounding
  /// data loss after a crash to one step at the cost of three fsyncs per
  /// step. false: data becomes durable when the writer closes.
  bool commit_every_step = false;

  SeriesOptions& with_keyframe_interval(std::uint32_t k) { keyframe_interval = k; return *this; }
  SeriesOptions& with_compress_threads(unsigned n) { compress_threads = n; return *this; }
  SeriesOptions& with_commit_every_step(bool on) { commit_every_step = on; return *this; }
};

/// Per-rank outcome of one write_step call.
struct SeriesStepReport {
  std::uint32_t step = 0;
  bool keyframe = false;
  double compress_seconds = 0.0;
  double write_seconds = 0.0;
  double total_seconds = 0.0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint32_t temporal_blocks = 0;
  std::uint32_t spatial_blocks = 0;
};

/// One instance per rank, living for the whole run (it holds the
/// temporal references). Collective: every rank calls write_step with
/// the same field names/global dims in the same order, every step; the
/// field set and element type are pinned by the first call.
class SeriesWriter {
 public:
  struct Impl;

  static Result<SeriesWriter> create(Writer& writer, SeriesOptions options = {});

  /// Invalid handle; write_step fails with kFailedPrecondition.
  SeriesWriter() = default;
  bool valid() const { return impl_ != nullptr; }

  Result<SeriesStepReport> write_step(Rank& rank, std::span<const Field> fields);

  /// Steps written so far == the step index the next call will get.
  std::uint32_t next_step() const;

  /// Process-wide telemetry delta since this series writer was created
  /// (zeroed struct on an invalid handle).
  Telemetry telemetry() const;

 private:
  std::shared_ptr<Impl> impl_;
};

/// The keyframe planner: pure function of (step, K), identical on every
/// rank.
inline bool is_keyframe_step(std::uint32_t step, std::uint32_t interval) {
  return interval == 0 || step % interval == 0;
}

struct SeriesReadOptions {
  unsigned decompress_threads = 1;
  /// Checksum depth applied at every link of the restart chain (no-op on
  /// blobs from format versions without checksums).
  VerifyMode verify = VerifyMode::kBlock;
  /// true: when a non-keyframe link of a field's restart chain is corrupt,
  /// deliver the chain's keyframe step for that whole field instead of
  /// failing, recording the downgrade in SeriesReadReport::degraded. A
  /// corrupt keyframe still fails with kCorruptData.
  bool degraded = false;

  SeriesReadOptions& with_decompress_threads(unsigned n) { decompress_threads = n; return *this; }
  SeriesReadOptions& with_verify(VerifyMode mode) { verify = mode; return *this; }
  SeriesReadOptions& with_degraded(bool on) { degraded = on; return *this; }
};

/// One field the read had to time-travel: the requested step's chain was
/// damaged, so the chain's keyframe step was delivered instead.
struct DegradedRead {
  std::string dataset;             // the damaged step dataset ("rho@t0005")
  std::uint64_t partition = 0;     // partition whose payload was corrupt
  std::uint32_t step_requested = 0;
  std::uint32_t step_recovered = 0;  // keyframe step actually delivered
  std::string detail;              // underlying error (names the block)
};

/// Outcome and cost accounting for a chained series read.
struct SeriesReadReport {
  std::uint64_t steps_chained = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t elements_out = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_decoded = 0;
  double read_seconds = 0.0;
  double decompress_seconds = 0.0;
  double total_seconds = 0.0;
  /// Fields downgraded to their keyframe (SeriesReadOptions::degraded).
  std::vector<DegradedRead> degraded;
};

/// Single-rank restart: reconstructs `field` at `step` (whole field, or
/// `region` of it), chain-decoding from the nearest keyframe.
Result<std::vector<std::uint8_t>> restart_bytes(const Reader& reader,
                                                const std::string& field,
                                                std::uint32_t step, DType expected,
                                                const std::optional<Region>& region = std::nullopt,
                                                const SeriesReadOptions& options = {},
                                                SeriesReadReport* report = nullptr);

/// Typed fast path; instantiated in the library for float and double
/// (the dtypes the format stores), returning the engine's buffer by
/// move. Use restart_bytes when the dtype is only known at runtime.
template <typename T>
Result<std::vector<T>> restart(const Reader& reader, const std::string& field,
                               std::uint32_t step,
                               const std::optional<Region>& region = std::nullopt,
                               const SeriesReadOptions& options = {},
                               SeriesReadReport* report = nullptr);

/// Collective multi-field series read at `step`; result i holds
/// requests[i]'s selection (request names are series base names).
Result<std::vector<std::vector<std::uint8_t>>> read_series_bytes(
    Rank& rank, const Reader& reader, std::span<const ReadRequest> requests,
    std::uint32_t step, DType expected, const SeriesReadOptions& options = {},
    SeriesReadReport* report = nullptr);

/// Typed fast path; see restart<T>.
template <typename T>
Result<std::vector<std::vector<T>>> read_series(Rank& rank, const Reader& reader,
                                                std::span<const ReadRequest> requests,
                                                std::uint32_t step,
                                                const SeriesReadOptions& options = {},
                                                SeriesReadReport* report = nullptr);

}  // namespace pcw

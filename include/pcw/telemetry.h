// pcw public API — observability: the metrics registry snapshot and the
// tracing control plane.
//
// The library is instrumented unconditionally. Metrics (counters, queue
// gauges, latency percentiles) are always on — an uncontended relaxed
// atomic per block/syscall-grained event — and snapshot into the plain
// Telemetry struct below. Tracing (scoped spans over every pipeline
// stage: sz quantize/huffman/lz per block, the h5 async write queue,
// the engines' per-step phases) is dormant until armed, either here via
// RuntimeOptions or by the PCW_TRACE=<path>[:cap=<n>] environment
// variable; armed traces export as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing.
//
// Writer, Reader, and SeriesWriter each expose telemetry() — the
// process-wide delta since that handle was created — while
// metrics_snapshot() reads the absolute process-wide totals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pcw/metric_list.h"
#include "pcw/status.h"

namespace pcw {

/// Plain snapshot of every process-wide metric: one field per reading of
/// PCW_METRICS (pcw/metric_list.h, which documents each), in list order,
/// then the two trace readings. Counters are cumulative since process
/// start (or the last metrics_reset()); gauges are the current level and
/// its peak; *_p50/_p99 are log2-bucket upper bounds over all samples so
/// far.
///
/// A handle's telemetry() subtracts, counter by counter, the snapshot
/// taken when the handle was created; gauges, percentiles and the trace
/// readings pass through current. A metrics_reset() while the handle is
/// alive makes its counters undercount: each delta saturates at 0, it
/// never wraps.
struct Telemetry {
#define PCW_TELEMETRY_COUNTER(member, doc) std::uint64_t member = 0;
#define PCW_TELEMETRY_PAIR(member, first, second, doc) \
  std::uint64_t first = 0;                             \
  std::uint64_t second = 0;
  PCW_METRICS(PCW_TELEMETRY_COUNTER, PCW_TELEMETRY_PAIR, PCW_TELEMETRY_PAIR)
#undef PCW_TELEMETRY_COUNTER
#undef PCW_TELEMETRY_PAIR
  // tracing (level readings, reset by trace_reset(), not metrics_reset())
  std::uint64_t trace_spans = 0;    // events recorded since arming
  std::uint64_t trace_dropped = 0;  // of those, lost to ring wrap
};

/// One (name, value) row of a Telemetry — the iteration order the CLIs'
/// --stats tables print in.
struct TelemetryItem {
  const char* name;
  std::uint64_t value;
};

/// Absolute process-wide totals.
Telemetry metrics_snapshot();

/// Zeroes every metric (tests, CLI sessions). Does not touch the trace
/// buffers — use trace_reset() for those.
void metrics_reset();

/// Flattens a snapshot into named rows, in field order.
std::vector<TelemetryItem> telemetry_items(const Telemetry& t);

/// Process-wide runtime knobs, builder-style like the other *Options.
struct RuntimeOptions {
  /// Arm tracing and flush the Chrome trace-event JSON to this path at
  /// process exit (same effect as PCW_TRACE=<path>). Empty = leave
  /// tracing as it is.
  std::string trace_path;
  /// Arm tracing with no exit flush: events stay buffered for
  /// flush_trace() / trace_span_stats().
  bool trace_buffered = false;
  /// Per-thread ring capacity in events (0 = keep the default, 32768).
  /// Rings wrap, dropping oldest; Telemetry::trace_dropped counts them.
  std::size_t trace_capacity = 0;

  RuntimeOptions& with_trace(std::string path) {
    trace_path = std::move(path);
    return *this;
  }
  RuntimeOptions& with_trace_buffered(bool on = true) {
    trace_buffered = on;
    return *this;
  }
  RuntimeOptions& with_trace_capacity(std::size_t events) {
    trace_capacity = events;
    return *this;
  }
};

/// Applies the runtime knobs (arming tracing as requested). Safe to call
/// more than once; later calls win.
Status configure(const RuntimeOptions& options);

/// true while spans are being collected (armed via configure(), a bench
/// harness, or PCW_TRACE).
bool tracing_active();

/// Stops tracing and writes the buffered events as Chrome trace-event
/// JSON to `path` (empty = the path configure()/PCW_TRACE registered).
/// Events are kept for a second flush; trace_reset() discards them.
Status flush_trace(const std::string& path = "");

/// Stops collecting spans; buffered events are kept.
void trace_stop();

/// Stops collecting and discards every buffered event.
void trace_reset();

/// Aggregate per-span-site view of the buffered events: count and total
/// wall time per distinct (category, name) — what the CLIs' --stats
/// print when tracing was active.
struct SpanStat {
  const char* name;
  const char* cat;
  std::uint64_t count;
  std::uint64_t total_ns;
};
std::vector<SpanStat> trace_span_stats();

}  // namespace pcw

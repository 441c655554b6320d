// pcw_bench — shared plumbing: run options, metric collection, quantiles,
// benchmark-owned trace spans, telemetry deltas, process memory and the
// host block.
//
// Spans here are the benchmark's own, recorded around its calls into each
// layer (the façade ops on the timed path, and the per-layer replays a
// traced run makes between ops). They live in memory and are written as
// Chrome trace-event JSON when the run ends; nothing is added inside the
// library.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pcw/pcw.h"
#include "pcw/store.h"

namespace pcw_bench {

/// Everything a workload needs from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string dir;         // scratch directory for files, sockets, probes
  std::string pcwd;        // pcwd binary (store_mixed and traced runs)
  std::string trace_path;  // non-empty: traced run, Chrome trace JSON here
  std::string inputs;      // non-empty: cache directory for generated frames
  bool traced() const { return !trace_path.empty(); }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `errors` holds failed correctness
/// checks; any entry makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

double now_s();

/// Linearly interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// 64-bit FNV-1a style hash of a byte range: the checksum the
/// correctness logs compare.
std::uint64_t checksum(const void* data, std::size_t bytes);

/// Largest |a[i] - b[i]|, or +inf when the sizes differ.
double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b);

// ---- end-to-end metrics ------------------------------------------------------

/// op_p50_ms, op_tail_ms (the `tail_q` quantile of `lat`, seconds) and
/// mb_per_s.
void report_ops(const std::vector<double>& lat, double tail_q, double mb_per_s, Outcome& out);
/// MB moved by closed-loop ops of `bytes_per_op` each, per second busy.
double mb_per_busy_s(const std::vector<double>& lat, double bytes_per_op);

/// A file's total size and the payload bytes its datasets store; the rest
/// is superblock, footer and reserved-but-unused slot space.
struct Storage {
  double file_bytes = 0.0;
  double payload_bytes = 0.0;
};
/// storage_ratio (raw / file) and space_overhead_pct ((file - payload) / raw).
void report_storage(const Storage& st, double raw_bytes, Outcome& out);

/// How much slower the traced half's median op is than the untraced half's.
double trace_overhead_pct(const std::vector<double>& untraced,
                          const std::vector<double>& traced);

// ---- inputs ------------------------------------------------------------------

/// Generator seed of every workload's two frames. The frames are a fixed
/// data set, as the paper's Nyx and VPIC snapshots are; the run's --seed
/// decides how each checkpoint blends them (and store_mixed's request
/// stream), so every seed writes different bytes of comparable data.
inline constexpr std::uint64_t kDatasetSeed = 2022;

/// Cache-file name part for frames of extents `d`: "64x256x256_s2022.f32".
std::string frames_tag(const pcw::Dims& d);

/// Fills `frames` (already sized) from the cache file `name` under
/// RunOptions::inputs, or runs `generate` and caches what it produced.
/// The frames depend only on kDatasetSeed and the workload's extents, so
/// one generator pass per build serves every run and seed.
void load_or_generate(const RunOptions& opt, const std::string& name,
                      const std::vector<std::vector<float>*>& frames,
                      const std::function<void()>& generate);

/// A seed's phase in [0, 1), where its blend-weight sequences start.
double seed_phase(std::uint64_t seed);
/// Blend weight in [0, 0.25) of round r: a golden-ratio sequence from the
/// seed's phase, so weights are distinct, evenly spread and reproducible.
/// Round r writes (1 - alpha) * A + alpha * B.
double blend_alpha(std::uint64_t seed, std::uint64_t round);
void blend(const std::vector<float>& a, const std::vector<float>& b, double alpha,
           std::vector<float>& out);

// ---- telemetry ---------------------------------------------------------------

/// Named counters, as pcw::telemetry_items() and pcwd's STATS both yield
/// them, so client- and server-side deltas share one code path.
using Counters = std::map<std::string, double>;
Counters local_counters();
Counters operator-(const Counters& a, const Counters& b);
double get(const Counters& c, const std::string& name);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Per-layer samples taken on the timed path of a traced run: counter
/// deltas around each op and each engine phase's share of the op.
/// report() emits every path metric, 0 where the workload's path never
/// reaches that layer; counts and MB are averaged per op, shares take the
/// median.
class PathStats {
 public:
  void add(const std::string& name, double value) { samples_[name].push_back(value); }
  /// sz and h5 counter deltas between two snapshots spanning `ops` ops.
  void add_counters(const Counters& before, const Counters& after, double ops);
  void report(Outcome& out) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// ---- spans -------------------------------------------------------------------

/// Benchmark-owned span recorder. Dormant unless enable() was called; a
/// dormant Span only reads the clock (for seconds()) and one relaxed
/// atomic.
namespace trace {
void enable();
bool enabled();
/// Starts a new operation: spans opened from now on carry its id, and
/// spans with no open parent on their thread hang under the op's root
/// span, which end_op() records.
void begin_op(std::uint64_t op);
void end_op();
/// Tags the spans this thread opens with `op` instead (0 restores the
/// begin_op() op): for threads that each issue their own requests.
void set_thread_op(std::uint64_t op);
bool write_json(const std::string& path);

class Span {
 public:
  Span(const char* name, const char* cat);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Seconds since the span opened (valid while dormant too).
  double seconds() const;

 private:
  const char* name_;
  const char* cat_;
  double start_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t enclosing_ = 0;  // this thread's open span, restored on close
  std::uint64_t op_ = 0;
  bool live_ = false;
};
}  // namespace trace

// ---- pcwd child process ------------------------------------------------------

/// A pcwd daemon run as a child process on a Unix socket under `dir`, with
/// a 64 MB decoded-block cache (`--cache-mb 64`, as tests/store_smoke.sh
/// runs it) and otherwise pcwd's defaults. At the default 256 MB so many
/// of store_mixed's reads hit that the read-latency median sat between the
/// hit and miss modes and jumped from one to the other between runs
/// (README.md). The daemon is killed if this process dies, and
/// killed and reaped by the destructor unless stop() already shut it down
/// cleanly.
class Daemon {
 public:
  Daemon(const std::string& pcwd, const std::string& dir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& address() const { return address_; }
  /// SHUTDOWN over the protocol, then waits for a clean exit.
  pcw::Status stop();
  /// The daemon's peak resident set in MB; known once stop() returned.
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  std::string address_;
  int pid_ = -1;
  double peak_rss_mb_ = 0.0;
};

/// Counter rows of a pcwd STATS reply.
Counters remote_counters(pcw::store::Client& client);

// ---- per-layer replay --------------------------------------------------------

/// One step of a series a pcwd serves.
struct SeriesStep {
  std::uint32_t file = 0;  // catalog id
  std::string path;
  std::string field;
  std::uint32_t step = 0;
};

/// The traced run's between-op replay of each layer's public functions
/// (model, sz, h5, mpi, the façade, pcwd) on one sample partition of the
/// workload's own inputs. Every call measures each layer once; finish()
/// adds the medians as per-layer metrics.
class Replay {
 public:
  /// `store_address` empty: the replay starts its own pcwd and appends the
  /// sample to its own series each run, timing the WRITE_STEP. Otherwise
  /// it reads the `target` step each run() names on that daemon, and the
  /// workload records store.step_write_ms itself.
  Replay(const RunOptions& opt, const std::string& store_address);

  /// One pass over every layer. Correctness failures land in `out`.
  void run(const std::vector<float>& sample, const pcw::Dims& dims, double eb, Outcome& out,
           const SeriesStep* target = nullptr);
  void record(const std::string& name, double value) { samples_[name].push_back(value); }
  /// Reports the per-layer medians and stops the replay's own pcwd.
  void finish(Outcome& out);

 private:
  RunOptions opt_;
  std::unique_ptr<Daemon> own_daemon_;  // declared before client_: outlives it
  pcw::store::Client client_;
  SeriesStep own_series_;  // used when the replay owns its pcwd
  std::map<std::string, std::vector<double>> samples_;
};

// ---- host --------------------------------------------------------------------

/// One-line JSON object: nproc, SIMD detected/active, L3 bytes, the
/// filesystem type of `dir`, and a fixed 64 MB pwrite+fsync probe in MB/s.
std::string host_json(const std::string& dir);

// ---- workloads ---------------------------------------------------------------

Outcome run_ckpt(const RunOptions& opt);
Outcome run_restart(const RunOptions& opt);
Outcome run_store(const RunOptions& opt);

}  // namespace pcw_bench

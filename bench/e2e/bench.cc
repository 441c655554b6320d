#include "bench.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pcw/kernels.h"

namespace pcw_bench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t checksum(const void* data, std::size_t bytes) {
  // FNV-1a over 8-byte words, then the tail bytes.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kPrime;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return worst;
}

void report_ops(const std::vector<double>& lat, double tail_q, double mb_per_s, Outcome& out) {
  out.e2e("op_p50_ms", median(lat) * 1e3, "ms");
  out.e2e("op_tail_ms", quantile(lat, tail_q) * 1e3, "ms");
  out.e2e("mb_per_s", mb_per_s, "MB/s");
}

double mb_per_busy_s(const std::vector<double>& lat, double bytes_per_op) {
  const double busy = std::accumulate(lat.begin(), lat.end(), 0.0);
  return busy > 0 ? bytes_per_op / 1e6 * static_cast<double>(lat.size()) / busy : 0.0;
}

void report_storage(const Storage& st, double raw_bytes, Outcome& out) {
  out.e2e("storage_ratio", st.file_bytes > 0 ? raw_bytes / st.file_bytes : 0.0, "x");
  out.e2e("space_overhead_pct", 100.0 * (st.file_bytes - st.payload_bytes) / raw_bytes, "%");
}

double trace_overhead_pct(const std::vector<double>& untraced,
                          const std::vector<double>& traced) {
  return untraced.empty() || traced.empty() ? 0.0
                                            : 100.0 * (median(traced) / median(untraced) - 1.0);
}

std::string frames_tag(const pcw::Dims& d) {
  return std::to_string(d.d0) + "x" + std::to_string(d.d1) + "x" + std::to_string(d.d2) + "_s" +
         std::to_string(kDatasetSeed) + ".f32";
}

void load_or_generate(const RunOptions& opt, const std::string& name,
                      const std::vector<std::vector<float>*>& frames,
                      const std::function<void()>& generate) {
  const std::string path = opt.inputs + "/" + name;
  std::size_t bytes = 0;
  for (const std::vector<float>* v : frames) bytes += v->size() * sizeof(float);
  if (!opt.inputs.empty()) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in && static_cast<std::size_t>(in.tellg()) == bytes) {
      in.seekg(0);
      for (std::vector<float>* v : frames) {
        in.read(reinterpret_cast<char*>(v->data()),
                static_cast<std::streamsize>(v->size() * sizeof(float)));
      }
      if (in) return;
    }
  }
  generate();
  if (opt.inputs.empty()) return;
  ::mkdir(opt.inputs.c_str(), 0755);
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  std::ofstream out(tmp, std::ios::binary);
  for (const std::vector<float>* v : frames) {
    out.write(reinterpret_cast<const char*>(v->data()),
              static_cast<std::streamsize>(v->size() * sizeof(float)));
  }
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

double seed_phase(std::uint64_t seed) {
  return static_cast<double>(checksum(&seed, sizeof(seed)) % 1000003) / 1000003.0;
}

double blend_alpha(std::uint64_t seed, std::uint64_t round) {
  const double x = seed_phase(seed) + 0.6180339887498949 * static_cast<double>(round);
  return 0.25 * (x - std::floor(x));
}

void blend(const std::vector<float>& a, const std::vector<float>& b, double alpha,
           std::vector<float>& out) {
  out.resize(a.size());
  const auto wa = static_cast<float>(1.0 - alpha);
  const auto wb = static_cast<float>(alpha);
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = wa * a[i] + wb * b[i];
}

// ---- telemetry ---------------------------------------------------------------

Counters local_counters() {
  Counters c;
  for (const pcw::TelemetryItem& item : pcw::telemetry_items(pcw::metrics_snapshot())) {
    c[item.name] = static_cast<double>(item.value);
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d = a;
  for (const auto& [name, value] : b) d[name] -= value;
  return d;
}

double get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

Counters remote_counters(pcw::store::Client& client) {
  Counters c;
  pcw::Result<std::vector<pcw::store::RemoteStat>> rows = client.stats();
  if (!rows.ok()) throw std::runtime_error("STATS: " + rows.status().to_string());
  for (const pcw::store::RemoteStat& row : rows.value()) {
    c[row.name] = static_cast<double>(row.value);
  }
  return c;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

constexpr std::pair<const char*, const char*> kPathMetrics[] = {
    {"core.predict_pct", "%"},        {"core.exchange_pct", "%"},
    {"core.compress_pct", "%"},       {"core.write_exposed_pct", "%"},
    {"core.overflow_pct", "%"},       {"core.read_plan_pct", "%"},
    {"core.read_io_pct", "%"},        {"core.read_decode_pct", "%"},
    {"model.slot_fill_pct", "%"},     {"model.overflow_partitions", "count"},
    {"sz.blocks_encoded", "count"},   {"sz.blocks_decoded", "count"},
    {"sz.outliers", "count"},         {"sz.temporal_blocks", "count"},
    {"h5.write_mb", "MB"},            {"h5.writes", "count"},
    {"h5.syncs", "count"},            {"h5.read_mb", "MB"},
    {"h5.reads", "count"},            {"h5.queue_hiwater", "count"},
    {"store.cache_hit_ratio", "%"},   {"store.cache_evictions", "count"},
    {"store.coalesced", "count"},     {"store.steps_per_batch", "count"},
    {"store.cache_hiwater_mb", "MB"}, {"store.writer_lag_pct", "%"},
    {"trace_overhead_pct", "%"},
};

}  // namespace

void PathStats::add_counters(const Counters& before, const Counters& after, double ops) {
  const Counters d = after - before;
  add("sz.blocks_encoded", get(d, "sz_blocks_encoded") / ops);
  add("sz.blocks_decoded", get(d, "sz_blocks_decoded") / ops);
  add("sz.outliers", get(d, "sz_outliers") / ops);
  add("sz.temporal_blocks", get(d, "sz_temporal_blocks") / ops);
  add("h5.write_mb", get(d, "io_write_bytes") / 1e6 / ops);
  add("h5.writes", get(d, "io_writes") / ops);
  add("h5.syncs", get(d, "io_syncs") / ops);
  add("h5.read_mb", get(d, "io_read_bytes") / 1e6 / ops);
  add("h5.reads", get(d, "io_reads") / ops);
  add("h5.queue_hiwater", get(after, "io_queue_hiwater"));
}

void PathStats::report(Outcome& out) const {
  for (const auto& [name, unit] : kPathMetrics) {
    const auto it = samples_.find(name);
    double value = 0.0;
    if (it != samples_.end() && !it->second.empty()) {
      const std::vector<double>& v = it->second;
      const bool averaged = std::string(unit) == "count" || std::string(unit) == "MB";
      value = averaged ? std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size())
                       : median(v);
    }
    out.layer(name, value, unit);
  }
}

// ---- spans -------------------------------------------------------------------

namespace trace {
namespace {

struct Record {
  const char* name;
  const char* cat;
  double start;
  double end;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  std::uint32_t tid;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_op{0};
std::atomic<std::uint64_t> g_root{0};
std::atomic<std::uint32_t> g_next_tid{1};
double g_epoch = 0.0;
double g_root_start = 0.0;  // written and read only by the op's thread

std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu

thread_local std::uint64_t t_current = 0;
thread_local std::uint64_t t_op = 0;

std::uint32_t thread_id() {
  thread_local const std::uint32_t id = g_next_tid.fetch_add(1);
  return id;
}

void record(const Record& r) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(r);
}

}  // namespace

void enable() {
  g_epoch = now_s();
  g_on.store(true);
}

bool enabled() { return g_on.load(std::memory_order_relaxed); }

void begin_op(std::uint64_t op) {
  if (!enabled()) return;
  g_op.store(op);
  g_root_start = now_s();
  g_root.store(g_next_id.fetch_add(1));
}

void end_op() {
  if (!enabled()) return;
  record({"op", "bench", g_root_start, now_s(), g_root.load(), 0, g_op.load(), thread_id()});
  g_root.store(0);
}

void set_thread_op(std::uint64_t op) { t_op = op; }

Span::Span(const char* name, const char* cat) : name_(name), cat_(cat), start_(now_s()) {
  if (!enabled()) return;
  live_ = true;
  id_ = g_next_id.fetch_add(1);
  op_ = t_op != 0 ? t_op : g_op.load();
  enclosing_ = t_current;
  parent_ = enclosing_ != 0 ? enclosing_ : g_root.load();
  t_current = id_;
}

Span::~Span() {
  if (!live_) return;
  t_current = enclosing_;
  record({name_, cat_, start_, now_s(), id_, parent_, op_, thread_id()});
}

double Span::seconds() const { return now_s() - start_; }

bool write_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"op\":%llu}}",
                  i == 0 ? "" : ",", r.name, r.cat, r.tid,
                  std::max(0.0, (r.start - g_epoch) * 1e6),
                  std::max(0.0, (r.end - r.start) * 1e6),
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.op));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace trace

// ---- pcwd child process ------------------------------------------------------

namespace {

bool file_contains(const std::string& path, const std::string& needle) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str().find(needle) != std::string::npos;
}

}  // namespace

Daemon::Daemon(const std::string& pcwd, const std::string& dir) {
  static std::atomic<int> counter{0};
  const std::string tag = std::to_string(counter.fetch_add(1));
  // A relative socket path keeps well under the 108-byte sun_path limit
  // wherever the checkout lives; client and daemon share this cwd.
  address_ = "unix:" + dir + "/pcwd" + tag + ".sock";
  const std::string log = dir + "/pcwd" + tag + ".log";
  // The log is created before the fork, so a stale ready line from an
  // earlier run can never be mistaken for this daemon's.
  const int log_fd = ::open(log.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot create " + log);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec: other threads
    // of this process may hold allocator locks.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execl(pcwd.c_str(), pcwd.c_str(), "--listen", address_.c_str(), "--cache-mb", "64",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(log_fd);
  for (int i = 0; i < 1000; ++i) {
    if (file_contains(log, "pcwd: listening on")) return;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("pcwd exited before becoming ready (see " + log + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // A throwing constructor runs no destructor: reap the child here.
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  throw std::runtime_error("pcwd never became ready (see " + log + ")");
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
}

pcw::Status Daemon::stop() {
  if (pid_ <= 0) return pcw::Status(pcw::StatusCode::kFailedPrecondition, "pcwd not running");
  {
    pcw::Result<pcw::store::Client> client = pcw::store::Client::connect(address_);
    if (!client.ok()) return client.status();
    const pcw::Status sent = client.value().shutdown_server();
    if (!sent.ok()) return sent;
  }
  int status = 0;
  rusage usage{};
  const pid_t waited = wait4(pid_, &status, 0, &usage);
  pid_ = -1;
  if (waited < 0) return pcw::Status(pcw::StatusCode::kInternal, "wait4 failed");
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return pcw::Status(pcw::StatusCode::kInternal,
                       "pcwd exited uncleanly (status " + std::to_string(status) + ")");
  }
  return pcw::Status::Ok();
}

// ---- host --------------------------------------------------------------------

namespace {

std::string fs_name(const std::string& dir) {
  struct statfs st{};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x2fc12fc1: return "zfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

/// Sequential 64 MB pwrite in 4 MB requests plus one fsync, in MB/s.
double disk_probe_mb_s(const std::string& dir) {
  const std::string path = dir + "/disk_probe.bin";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return 0.0;
  std::vector<char> chunk(4u << 20, 'p');
  const double t0 = now_s();
  bool ok = true;
  for (int i = 0; i < 16 && ok; ++i) {
    ok = ::pwrite(fd, chunk.data(), chunk.size(),
                  static_cast<off_t>(i) * static_cast<off_t>(chunk.size())) ==
         static_cast<ssize_t>(chunk.size());
  }
  ok = ok && ::fsync(fd) == 0;
  const double seconds = now_s() - t0;
  ::close(fd);
  ::unlink(path.c_str());
  return ok && seconds > 0.0 ? 64.0 * 1.048576 / seconds : 0.0;
}

}  // namespace

std::string host_json(const std::string& dir) {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"simd_detected\": \"%s\", \"simd_active\": \"%s\", "
                "\"l3_bytes\": %ld, \"fs\": \"%s\", \"disk_probe_mb_s\": %.1f}",
                sysconf(_SC_NPROCESSORS_ONLN),
                pcw::util::simd_name(pcw::util::simd_detected()),
                pcw::util::simd_name(pcw::util::simd_active()), l3 > 0 ? l3 : 0L,
                fs_name(dir).c_str(), disk_probe_mb_s(dir));
  return buf;
}

}  // namespace pcw_bench

#include "util/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace pcw::util::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kDefaultCapacity = 32768;

/// One thread's span storage. Only the owning thread writes slots and
/// `head`; it publishes progress with a release store so the (stopped,
/// mutex-holding) exporter reads a consistent prefix. The slots are
/// reserved up front but filled as events arrive, so a slot never moves
/// and a thread touches only the pages its events need: the default ring
/// is 1.5 MB, and zeroing it whole would land in the thread's first
/// traced call. Readers index through data(), never size(), which the
/// owner may be changing.
struct Ring {
  explicit Ring(std::size_t capacity, std::uint32_t id) : cap(capacity), tid(id) {
    slots.reserve(cap);
  }
  std::vector<Event> slots;
  const std::size_t cap;
  std::uint64_t head = 0;  // total events ever recorded by this thread
  std::atomic<std::uint64_t> published{0};
  std::uint32_t tid;
};

struct Global {
  std::mutex mu;
  // Rings are created on a thread's first record and never destroyed, so
  // events from finished pool threads survive to the export and the
  // thread_local pointers stay valid for the process lifetime.
  std::vector<std::unique_ptr<Ring>> rings;
  std::size_t capacity = kDefaultCapacity;
  std::string exit_path;
  std::uint32_t next_tid = 1;
};

Global& global() {
  static Global* g = new Global();  // intentionally leaked: records until exit
  return *g;
}

thread_local Ring* t_ring = nullptr;

Ring* register_ring() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.rings.push_back(std::make_unique<Ring>(g.capacity, g.next_tid++));
  t_ring = g.rings.back().get();
  return t_ring;
}

void flush_at_exit() {
  const std::string path = flush_path();
  if (path.empty() || recorded() == 0) return;
  if (!write_json(path)) {
    std::fprintf(stderr, "pcw: could not write PCW_TRACE file %s\n", path.c_str());
  }
}

/// PCW_TRACE env arming, same static-initializer pattern as PCW_FAULT.
struct EnvArm {
  EnvArm() {
    const char* spec = std::getenv("PCW_TRACE");
    if (spec == nullptr || *spec == '\0') return;
    std::string path;
    std::size_t cap = 0;
    if (parse_spec(spec, &path, &cap)) {
      set_flush_path(path);
      start(cap);
      std::atexit(flush_at_exit);
    } else {
      std::fprintf(stderr, "pcw: ignoring unparseable PCW_TRACE=%s\n", spec);
    }
  }
};
const EnvArm g_env_arm;

/// Copies a ring's live window, oldest-first (pre-wrap order preserved).
void collect_ring(const Ring& ring, std::vector<Event>& out) {
  const std::uint64_t head = ring.published.load(std::memory_order_acquire);
  const std::size_t cap = ring.cap;
  const std::uint64_t first = head > cap ? head - cap : 0;
  for (std::uint64_t i = first; i < head; ++i) {
    out.push_back(ring.slots.data()[i % cap]);
  }
}

}  // namespace

void start(std::size_t events_per_thread) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  if (events_per_thread > 0) g.capacity = events_per_thread;
  detail::g_enabled.store(true, std::memory_order_release);
}

void stop() { detail::g_enabled.store(false, std::memory_order_release); }

void clear() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  for (auto& ring : g.rings) {
    ring->head = 0;
    ring->published.store(0, std::memory_order_release);
  }
}

void set_flush_path(const std::string& path) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.exit_path = path;
}

std::string flush_path() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.exit_path;
}

bool parse_spec(const char* spec, std::string* path_out, std::size_t* cap_out) {
  const std::string s(spec);
  if (s.empty()) return false;
  const std::size_t colon = s.rfind(":cap=");
  std::string path = s;
  std::size_t cap = 0;
  if (colon != std::string::npos) {
    path = s.substr(0, colon);
    const std::string num = s.substr(colon + 5);
    if (path.empty() || num.empty()) return false;
    char* end = nullptr;
    cap = static_cast<std::size_t>(std::strtoull(num.c_str(), &end, 10));
    if (end == nullptr || *end != '\0' || cap == 0) return false;
  }
  if (path.empty()) return false;
  if (path_out != nullptr) *path_out = path;
  if (cap_out != nullptr) *cap_out = cap;
  return true;
}

std::uint64_t recorded() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::uint64_t total = 0;
  for (const auto& ring : g.rings) {
    total += ring->published.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t dropped() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::uint64_t total = 0;
  for (const auto& ring : g.rings) {
    const std::uint64_t head = ring->published.load(std::memory_order_acquire);
    if (head > ring->cap) total += head - ring->cap;
  }
  return total;
}

std::vector<Event> events() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::vector<Event> out;
  for (const auto& ring : g.rings) collect_ring(*ring, out);
  return out;
}

std::vector<SpanStat> span_stats() {
  std::vector<SpanStat> stats;
  for (const Event& e : events()) {
    auto it = std::find_if(stats.begin(), stats.end(), [&](const SpanStat& s) {
      return std::strcmp(s.name, e.name) == 0 && std::strcmp(s.cat, e.cat) == 0;
    });
    if (it == stats.end()) {
      stats.push_back(SpanStat{e.name, e.cat, 0, 0});
      it = std::prev(stats.end());
    }
    ++it->count;
    it->total_ns += e.end_ns - e.start_ns;
  }
  std::sort(stats.begin(), stats.end(), [](const SpanStat& a, const SpanStat& b) {
    return a.total_ns > b.total_ns;
  });
  return stats;
}

void record(const char* name, const char* cat, std::uint64_t start_ns,
            std::uint64_t end_ns, const char* arg_name, std::uint64_t arg) {
  Ring* ring = t_ring;
  if (ring == nullptr) ring = register_ring();
  const Event e{name, cat, arg_name, arg, start_ns, end_ns, ring->tid};
  // Slot head % cap exists once the ring has wrapped, or after clear();
  // otherwise it is the next one to fill.
  const std::size_t i = ring->head % ring->cap;
  if (i < ring->slots.size()) {
    ring->slots[i] = e;
  } else {
    ring->slots.push_back(e);
  }
  ring->published.store(++ring->head, std::memory_order_release);
}

bool write_json(const std::string& path) {
  stop();
  std::vector<Event> all = events();
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.start_ns < b.start_ns;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Chrome trace-event format: complete ("X") events with microsecond
  // timestamps. Names/cats are in-tree literals, no escaping needed.
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Event& e = all[i];
    const double ts_us = static_cast<double>(e.start_ns) / 1000.0;
    const double dur_us = static_cast<double>(e.end_ns - e.start_ns) / 1000.0;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                 e.name, e.cat, e.tid, ts_us, dur_us);
    if (e.arg_name != nullptr) {
      std::fprintf(f, ",\"args\":{\"%s\":%llu}", e.arg_name,
                   static_cast<unsigned long long>(e.arg));
    }
    std::fprintf(f, "}%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fputs("],\"displayTimeUnit\":\"ns\"}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace pcw::util::trace

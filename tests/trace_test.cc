// Tests for the telemetry layer: util::trace (dormant cost, span
// nesting, thread attribution, ring wrap, PCW_TRACE grammar, JSON
// export) and util::metrics (concurrent counter/gauge/histogram
// consistency, snapshot/reset).
//
// Test order matters within this binary: the dormant checks run first,
// before any test arms tracing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <filesystem>
#include <new>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "pcw/telemetry.h"
#include "util/metrics.h"
#include "util/trace.h"

// Global allocation counter for the dormant zero-alloc check. Counting
// operator new in the test binary is enough: the dormant span path must
// not allocate, whatever the allocator underneath. The malloc/free pair
// below is internally consistent; GCC's mismatched-new-delete heuristic
// cannot see that through the replaced operators, so it is silenced
// here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pcw::util {
namespace {

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("pcw_trace_" + tag + ".json"))
      .string();
}

// ------------------------------------------------------ dormant path ----

TEST(Trace, DormantByDefault) {
  EXPECT_FALSE(trace::enabled());
  // No PCW_TRACE in the test environment: no exit flush is armed either.
  EXPECT_TRUE(trace::flush_path().empty());
}

TEST(Trace, DormantSpansDoNotAllocateOrRecord) {
  ASSERT_FALSE(trace::enabled());
  const std::uint64_t recorded_before = trace::recorded();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    trace::Span span("dormant", "test", "i", static_cast<std::uint64_t>(i));
    trace::Span plain("dormant2", "test");
    plain.set_arg("i", static_cast<std::uint64_t>(i));
    trace::instant("marker", "test");
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), allocs_before);
  EXPECT_EQ(trace::recorded(), recorded_before);
}

TEST(Trace, StageTimerMeasuresWhileDormant) {
  ASSERT_FALSE(trace::enabled());
  const std::uint64_t recorded_before = trace::recorded();
  double seconds = 0.0;
  {
    trace::StageTimer timer("stage", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    seconds = timer.seconds();
  }
  // The engines' phase reports need real time even when tracing is off...
  EXPECT_GT(seconds, 0.001);
  // ...but no span may be recorded on the dormant path.
  EXPECT_EQ(trace::recorded(), recorded_before);
}

// ----------------------------------------------------- armed recording ----

TEST(Trace, SpanNestingAndArgs) {
  trace::stop();
  trace::clear();
  trace::start();
  {
    trace::Span outer("outer", "test");
    {
      trace::Span inner("inner", "test", "block", 7);
    }
  }
  trace::stop();
  const std::vector<trace::Event> events = trace::events();
  ASSERT_EQ(events.size(), 2u);
  // Inner destructs (and records) first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_STREQ(events[0].cat, "test");
  // Nesting: the outer span brackets the inner one on the same thread.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].end_ns, events[0].end_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
  ASSERT_NE(events[0].arg_name, nullptr);
  EXPECT_STREQ(events[0].arg_name, "block");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].arg_name, nullptr);
}

TEST(Trace, ThreadsGetDistinctTids) {
  trace::stop();
  trace::clear();
  trace::start();
  auto one_span = [] { trace::Span span("worker", "test"); };
  std::thread a(one_span), b(one_span);
  a.join();
  b.join();
  trace::stop();
  const std::vector<trace::Event> events = trace::events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_NE(events[0].tid, 0u);
  EXPECT_NE(events[1].tid, 0u);
}

TEST(Trace, RingWrapKeepsNewestAndCountsDropped) {
  trace::stop();
  trace::clear();
  trace::start(8);  // new rings get capacity 8
  std::thread writer([] {
    for (int i = 0; i < 100; ++i) {
      trace::Span span("wrap", "test", "i", static_cast<std::uint64_t>(i));
    }
  });
  writer.join();
  trace::stop();
  EXPECT_EQ(trace::recorded(), 100u);
  EXPECT_EQ(trace::dropped(), 92u);
  const std::vector<trace::Event> events = trace::events();
  ASSERT_EQ(events.size(), 8u);
  // The live window is the newest events, oldest-first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 92u + i);
  }
  trace::start(32768);  // restore default capacity for later rings
  trace::stop();
}

// A ring fills as events arrive; after clear() it is rewritten from its
// first slot, then grows and wraps as before.
TEST(Trace, ClearedRingRefillsInOrder) {
  trace::stop();
  trace::clear();
  trace::start(8);
  std::vector<trace::Event> refilled;
  std::thread writer([&refilled] {
    for (int i = 0; i < 5; ++i) {
      trace::Span span("refill", "test", "i", static_cast<std::uint64_t>(i));
    }
    trace::clear();
    for (int i = 0; i < 11; ++i) {
      trace::Span span("refill", "test", "i", static_cast<std::uint64_t>(100 + i));
      if (i == 2) refilled = trace::events();
    }
  });
  writer.join();
  trace::stop();
  ASSERT_EQ(refilled.size(), 2u);  // taken inside the third span
  EXPECT_EQ(refilled[0].arg, 100u);
  EXPECT_EQ(refilled[1].arg, 101u);
  EXPECT_EQ(trace::recorded(), 11u);
  EXPECT_EQ(trace::dropped(), 3u);
  const std::vector<trace::Event> events = trace::events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 103u + i);
  }
  trace::start(32768);  // restore default capacity for later rings
  trace::stop();
}

TEST(Trace, SpanStatsAggregateByNameAndCat) {
  trace::stop();
  trace::clear();
  trace::start();
  {
    trace::Span a1("alpha", "test");
  }
  {
    trace::Span a2("alpha", "test");
  }
  {
    trace::Span b("beta", "test");
  }
  trace::stop();
  const std::vector<trace::SpanStat> stats = trace::span_stats();
  ASSERT_EQ(stats.size(), 2u);
  std::uint64_t alpha_count = 0, beta_count = 0;
  for (const trace::SpanStat& s : stats) {
    if (std::string(s.name) == "alpha") alpha_count = s.count;
    if (std::string(s.name) == "beta") beta_count = s.count;
  }
  EXPECT_EQ(alpha_count, 2u);
  EXPECT_EQ(beta_count, 1u);
}

// ----------------------------------------------------- PCW_TRACE grammar ----

TEST(Trace, ParseSpecGrammar) {
  std::string path;
  std::size_t cap = 0;

  EXPECT_TRUE(trace::parse_spec("trace.json", &path, &cap));
  EXPECT_EQ(path, "trace.json");
  EXPECT_EQ(cap, 0u);  // 0 = default capacity

  EXPECT_TRUE(trace::parse_spec("/tmp/out.json:cap=512", &path, &cap));
  EXPECT_EQ(path, "/tmp/out.json");
  EXPECT_EQ(cap, 512u);

  path = "untouched";
  cap = 99;
  EXPECT_FALSE(trace::parse_spec("", &path, &cap));
  EXPECT_FALSE(trace::parse_spec(":cap=5", &path, &cap));
  EXPECT_FALSE(trace::parse_spec("x:cap=", &path, &cap));
  EXPECT_FALSE(trace::parse_spec("x:cap=0", &path, &cap));
  EXPECT_FALSE(trace::parse_spec("x:cap=12abc", &path, &cap));
  EXPECT_EQ(path, "untouched");
  EXPECT_EQ(cap, 99u);
}

// ----------------------------------------------------------- JSON export ----

TEST(Trace, WriteJsonProducesChromeTraceEvents) {
  trace::stop();
  trace::clear();
  trace::start();
  {
    trace::Span span("json_span", "test", "bytes", 42);
  }
  trace::instant("json_marker", "test");
  const std::string path = temp_path("export");
  ASSERT_TRUE(trace::write_json(path));  // write_json stops tracing
  EXPECT_FALSE(trace::enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Events survive the export (write_json can run twice).
  EXPECT_TRUE(trace::write_json(path));
  std::filesystem::remove(path);

  EXPECT_FALSE(trace::write_json("/nonexistent-dir/pcw_trace.json"));
  trace::clear();
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, ConcurrentUpdatesStayConsistent) {
  metrics::reset();
  auto& reg = metrics::Registry::get();
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        reg.sz_bytes_in.add(2);
        reg.io_queue_depth.add(1);
        reg.io_write_ns.record(static_cast<std::uint64_t>(i));
        reg.io_queue_depth.add(-1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Telemetry snap = metrics_snapshot();
  EXPECT_EQ(snap.sz_bytes_in, static_cast<std::uint64_t>(2 * kThreads * kIters));
  EXPECT_EQ(snap.io_queue_depth, 0u);
  EXPECT_GE(snap.io_queue_hiwater, 1u);
  EXPECT_LE(snap.io_queue_hiwater, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(reg.io_write_ns.count(), static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_GE(snap.io_write_p99_ns, snap.io_write_p50_ns);
}

TEST(Metrics, GaugeTracksValueAndHighWater) {
  metrics::Gauge gauge;
  gauge.add(3);
  gauge.add(2);
  gauge.add(-4);
  EXPECT_EQ(gauge.value(), 1);
  EXPECT_EQ(gauge.hiwater(), 5u);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.hiwater(), 0u);
}

TEST(Metrics, HistogramQuantileBounds) {
  metrics::Histogram hist;
  EXPECT_EQ(hist.quantile_bound(0.5), 0u);  // empty
  for (int i = 0; i < 100; ++i) hist.record(10);  // bucket 3: [8, 15]
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 1000u);
  EXPECT_EQ(hist.quantile_bound(0.5), 15u);
  EXPECT_EQ(hist.quantile_bound(0.99), 15u);
  hist.record(1u << 20);  // one large outlier shifts only the tail
  EXPECT_EQ(hist.quantile_bound(0.5), 15u);

  // The edges: 0 and 1 share bucket 0, 2 starts bucket 1, and the top
  // bucket's bound saturates.
  const std::pair<std::uint64_t, std::uint64_t> edges[] = {
      {0, 1}, {1, 1}, {2, 3}, {std::uint64_t{1} << 63, UINT64_MAX}};
  for (const auto& [sample, bound] : edges) {
    metrics::Histogram one;
    one.record(sample);
    EXPECT_EQ(one.quantile_bound(0.5), bound) << sample;
  }
}

TEST(Metrics, ResetZeroesEverything) {
  auto& reg = metrics::Registry::get();
  reg.sz_bytes_in.add(10);
  reg.io_queue_depth.add(3);
  reg.io_write_ns.record(100);
  metrics::reset();
  const Telemetry snap = metrics_snapshot();
  EXPECT_EQ(snap.sz_bytes_in, 0u);
  EXPECT_EQ(snap.io_queue_depth, 0u);
  EXPECT_EQ(snap.io_queue_hiwater, 0u);
  EXPECT_EQ(snap.io_write_p50_ns, 0u);
}

}  // namespace
}  // namespace pcw::util

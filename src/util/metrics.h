// Process-wide metrics registry: named counters, level gauges with
// high-water marks, and log2-bucketed histograms, all relaxed atomics.
// Always on — an uncontended relaxed fetch_add per block/syscall-grained
// event is noise next to the work it counts, so there is no arming knob;
// hot inner loops accumulate locally and add once per block.
//
// The members are declared once, in PCW_METRICS (pcw/metric_list.h);
// pcw::metrics_snapshot() reads them as a pcw::Telemetry and reset()
// zeroes them all (CLI --stats, tests).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "pcw/metric_list.h"

namespace pcw::util::metrics {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Level gauge (e.g. async-queue depth) with a monotone high-water mark.
class Gauge {
 public:
  void add(std::int64_t delta) noexcept {
    const std::int64_t now = v_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) {
      std::uint64_t hi = hi_.load(std::memory_order_relaxed);
      const auto unow = static_cast<std::uint64_t>(now < 0 ? 0 : now);
      while (unow > hi &&
             !hi_.compare_exchange_weak(hi, unow, std::memory_order_relaxed)) {
      }
    }
  }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  std::uint64_t hiwater() const noexcept { return hi_.load(std::memory_order_relaxed); }
  void reset() noexcept {
    v_.store(0, std::memory_order_relaxed);
    hi_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::uint64_t> hi_{0};
};

/// Log2-bucketed histogram of u64 samples (latencies in ns, sizes in
/// bytes): bucket b holds the samples with bit_width == b + 1, that is
/// [2^b, 2^(b+1) - 1], except that 0 and 1 share bucket 0.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Upper bound of the bucket holding quantile q in [0, 1] (0 if empty).
  std::uint64_t quantile_bound(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen > rank) {
        return b >= 63 ? UINT64_MAX : (std::uint64_t{1} << (b + 1)) - 1;
      }
    }
    return UINT64_MAX;
  }
  void reset() noexcept {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  static std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v | 1)) - 1;
  }
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// The process-wide registry: one member per PCW_METRICS entry, in list
/// order.
struct Registry {
#define PCW_REGISTRY_COUNTER(member, doc) Counter member;
#define PCW_REGISTRY_GAUGE(member, value_name, hiwater_name, doc) Gauge member;
#define PCW_REGISTRY_HISTOGRAM(member, p50_name, p99_name, doc) Histogram member;
  PCW_METRICS(PCW_REGISTRY_COUNTER, PCW_REGISTRY_GAUGE, PCW_REGISTRY_HISTOGRAM)
#undef PCW_REGISTRY_COUNTER
#undef PCW_REGISTRY_GAUGE
#undef PCW_REGISTRY_HISTOGRAM

  static Registry& get() noexcept {
    static Registry r;
    return r;
  }
};

/// Zeroes every registry member.
inline void reset() noexcept {
  Registry& r = Registry::get();
#define PCW_RESET(member, ...) r.member.reset();
  PCW_METRICS(PCW_RESET, PCW_RESET, PCW_RESET)
#undef PCW_RESET
}

}  // namespace pcw::util::metrics

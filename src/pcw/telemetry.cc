#include "pcw/telemetry.h"

#include <algorithm>

#include "pcw/convert.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pcw {
namespace {

/// A gauge's level, clamped at 0: a decrement racing the read can briefly
/// undershoot.
std::uint64_t level(const util::metrics::Gauge& g) {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(g.value(), 0));
}

}  // namespace

namespace detail {

Telemetry telemetry_since(const Telemetry& base) {
  Telemetry t = metrics_snapshot();
#define PCW_SUBTRACT(member, doc) t.member = t.member > base.member ? t.member - base.member : 0;
#define PCW_PASS_THROUGH(...)
  PCW_METRICS(PCW_SUBTRACT, PCW_PASS_THROUGH, PCW_PASS_THROUGH)
#undef PCW_SUBTRACT
#undef PCW_PASS_THROUGH
  return t;
}

}  // namespace detail

Telemetry metrics_snapshot() {
  const util::metrics::Registry& r = util::metrics::Registry::get();
  Telemetry t;
#define PCW_READ_COUNTER(member, doc) t.member = r.member.get();
#define PCW_READ_GAUGE(member, value_name, hiwater_name, doc) \
  t.value_name = level(r.member);                              \
  t.hiwater_name = r.member.hiwater();
#define PCW_READ_HISTOGRAM(member, p50_name, p99_name, doc) \
  t.p50_name = r.member.quantile_bound(0.50);               \
  t.p99_name = r.member.quantile_bound(0.99);
  PCW_METRICS(PCW_READ_COUNTER, PCW_READ_GAUGE, PCW_READ_HISTOGRAM)
#undef PCW_READ_COUNTER
#undef PCW_READ_GAUGE
#undef PCW_READ_HISTOGRAM
  t.trace_spans = util::trace::recorded();
  t.trace_dropped = util::trace::dropped();
  return t;
}

void metrics_reset() { util::metrics::reset(); }

std::vector<TelemetryItem> telemetry_items(const Telemetry& t) {
#define PCW_ROW(member, doc) {#member, t.member},
#define PCW_ROWS(member, first, second, doc) {#first, t.first}, {#second, t.second},
  return {
      PCW_METRICS(PCW_ROW, PCW_ROWS, PCW_ROWS)
      {"trace_spans", t.trace_spans},
      {"trace_dropped", t.trace_dropped},
  };
#undef PCW_ROW
#undef PCW_ROWS
}

Status configure(const RuntimeOptions& options) {
  return detail::guarded_status([&] {
    if (!options.trace_path.empty()) {
      util::trace::set_flush_path(options.trace_path);
      util::trace::start(options.trace_capacity);
    } else if (options.trace_buffered) {
      util::trace::start(options.trace_capacity);
    }
  });
}

bool tracing_active() { return util::trace::enabled(); }

Status flush_trace(const std::string& path) {
  const std::string target = path.empty() ? util::trace::flush_path() : path;
  if (target.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "telemetry: no trace path configured");
  }
  if (!util::trace::write_json(target)) {
    return Status(StatusCode::kIoError, "telemetry: cannot write " + target);
  }
  return Status::Ok();
}

void trace_stop() { util::trace::stop(); }

void trace_reset() {
  util::trace::stop();
  util::trace::clear();
}

std::vector<SpanStat> trace_span_stats() {
  std::vector<SpanStat> out;
  for (const util::trace::SpanStat& s : util::trace::span_stats()) {
    out.push_back({s.name, s.cat, s.count, s.total_ns});
  }
  return out;
}

}  // namespace pcw

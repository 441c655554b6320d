// pcw_bench — end-to-end benchmark of the pcw checkpoint, restart and
// checkpoint-store paths. One invocation runs one workload:
//
//   pcw_bench --workload NAME --seed N --seconds S --dir DIR
//             [--pcwd PATH] [--trace PATH] [--inputs DIR] [--smoke]
//
// It generates its inputs from the seed, measures for S seconds, checks
// every output it can, and prints a `host {...}` line, one
// `workload metric value unit` row per metric, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; with --trace the run records its own
// spans (written to PATH as Chrome trace JSON) and reports the per-layer
// metrics instead. --inputs caches the generated input frames in DIR.
// Exit status: 0 correct, 1 a check failed, 2 usage.
// bench/e2e/run.py builds this binary and drives it; see README.md.
#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

constexpr const char* kUsage =
    "usage: pcw_bench --workload nyx_overlap|nyx_filter|nyx_raw|vpic_overlap|nyx_restart|"
    "store_mixed --seed N --seconds S --dir DIR [--pcwd PATH] [--trace PATH]\n"
    "       [--inputs DIR] [--smoke]\n";

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "error: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

/// Shortest decimal that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

pcw_bench::Outcome dispatch(const pcw_bench::RunOptions& opt) {
  const std::string& w = opt.workload;
  if (w == "nyx_overlap" || w == "nyx_filter" || w == "nyx_raw" || w == "vpic_overlap") {
    return pcw_bench::run_ckpt(opt);
  }
  if (w == "nyx_restart") return pcw_bench::run_restart(opt);
  if (w == "store_mixed") return pcw_bench::run_store(opt);
  usage("unknown workload " + w);
}

}  // namespace

int main(int argc, char** argv) {
  pcw_bench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--dir") {
      opt.dir = value;
    } else if (arg == "--pcwd") {
      opt.pcwd = value;
    } else if (arg == "--trace") {
      opt.trace_path = value;
    } else if (arg == "--inputs") {
      opt.inputs = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (opt.workload.empty() || opt.dir.empty()) usage("--workload and --dir are required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if ((opt.workload == "store_mixed" || opt.traced()) && opt.pcwd.empty()) {
    usage("--pcwd is required for store_mixed and traced runs");
  }
  ::mkdir(opt.dir.c_str(), 0755);

  std::printf("host %s\n", pcw_bench::host_json(opt.dir).c_str());
  pcw_bench::Outcome out;
  try {
    out = dispatch(opt);
  } catch (const std::exception& e) {
    out.check(false, std::string("aborted: ") + e.what());
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.failed = std::max<std::uint64_t>(out.failed, 1);
  }
  if (opt.traced() && !pcw_bench::trace::write_json(opt.trace_path)) {
    out.check(false, "cannot write trace " + opt.trace_path);
  }

  const auto& metrics = opt.traced() ? out.per_layer : out.end_to_end;
  std::string json = "{";
  for (const pcw_bench::Metric& m : metrics) {
    if (!std::isfinite(m.value)) out.check(false, m.name + " is not finite");
    const std::string value = std::isfinite(m.value) ? number(m.value) : "0";
    std::printf("%s %s %s %s\n", opt.workload.c_str(), m.name.c_str(), value.c_str(),
                m.unit.c_str());
    json += (json.size() > 1 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}";
  for (const std::string& e : out.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  const bool correct = out.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), json.c_str());
  return correct ? 0 : 1;
}

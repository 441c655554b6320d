// store_mixed: a real pcwd child process serving one series file to a
// periodic writer and two closed-loop readers at once.
//
// The writer appends a step of every field every 0.5 s and is timed from
// when each step was due, so a stalled daemon shows as latency rather than
// as a slower schedule. Readers pick the newest steps most often
// (geometric, p = 0.25), as restarts read the latest checkpoint, and read
// one x-plane (70%) or the whole step (30%). Every commit invalidates the
// file's cache entries, so the cache, the shard locks and temporal chain
// decode all sit on the timed path.
//
// No pcwd deployment trace exists to derive this traffic from: the write
// period, the plane/whole split, the skew and the reader count are
// assumptions (README.md), not measurements. The keyframe interval is the
// library's default; the cache size is explained at Daemon.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "pcw/workloads.h"

namespace pcw_bench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr std::uint32_t kSeedSteps = 16;
constexpr double kStepPeriod = 0.5;
constexpr int kReaders = 2;
constexpr double kPlaneShare = 0.7;
constexpr double kNewestBias = 0.25;
constexpr int kLogEvery = 20;

/// Two Nyx fields; step s blends the frames with a weight that moves a
/// little each step from the seed's phase, so consecutive steps differ
/// slightly, as a simulation's do, and the temporal predictor has work.
struct Series {
  pcw::Dims dims;
  std::vector<std::string> names;
  std::vector<double> ebs;
  std::vector<std::vector<float>> a, b;  // [field]
  double phase = 0.0;

  std::vector<float> step_data(std::size_t field, std::uint32_t step) const {
    // From a seed-dependent offset the weight walks a triangle wave, moving
    // by the same amount every step, so under every seed consecutive steps
    // differ equally.
    const double x = static_cast<double>(step) / 200.0;
    const double tri = 1.0 - std::fabs(1.0 - 2.0 * (x - std::floor(x)));
    std::vector<float> out;
    blend(a[field], b[field], 0.1 * phase + 0.15 * tri, out);
    return out;
  }
  double raw_bytes_per_step() const {
    return static_cast<double>(dims.count() * sizeof(float) * names.size());
  }
};

Series make_series(const RunOptions& opt) {
  Series s;
  s.phase = seed_phase(opt.seed);
  s.dims = opt.smoke ? pcw::Dims::make_3d(8, 16, 16) : pcw::Dims::make_3d(64, 128, 128);
  const pcw::data::NyxField fields[] = {pcw::data::NyxField::kBaryonDensity,
                                        pcw::data::NyxField::kTemperature};
  for (const auto field : fields) {
    const auto info = pcw::data::nyx_field_info(field);
    s.names.emplace_back(info.name);
    s.ebs.push_back(info.abs_error_bound);
  }
  s.a.assign(s.names.size(), std::vector<float>(s.dims.count()));
  s.b = s.a;
  std::vector<std::vector<float>*> frames;
  for (auto* frame : {&s.a, &s.b}) {
    for (auto& v : *frame) frames.push_back(&v);
  }
  load_or_generate(opt, "series_" + frames_tag(s.dims), frames, [&] {
    for (std::size_t i = 0; i < s.names.size(); ++i) {
      s.a[i] = pcw::data::make_nyx_field(s.dims, fields[i], kDatasetSeed, 0.0);
      s.b[i] = pcw::data::make_nyx_field(s.dims, fields[i], kDatasetSeed, 0.5);
    }
  });
  return s;
}

pcw::store::Client connect(const std::string& address) {
  pcw::Result<pcw::store::Client> client = pcw::store::Client::connect(address);
  if (!client.ok()) throw std::runtime_error("connect: " + client.status().to_string());
  return std::move(client).value();
}

/// A running pcwd holding a seeded series file.
struct Store {
  std::unique_ptr<Daemon> daemon;
  std::string path;
  std::uint32_t file = 0;
};

/// Starts pcwd and seeds `path` with kSeedSteps steps of every field, one
/// connection per field writing concurrently so the daemon group-commits
/// them. Acks must number each field's steps 0, 1, 2, ...
Store bring_up(const RunOptions& opt, const Series& s, const std::string& path) {
  Store st;
  st.daemon = std::make_unique<Daemon>(opt.pcwd, opt.dir);
  st.path = path;
  pcw::store::Client owner = connect(st.daemon->address());
  const pcw::Result<pcw::store::RemoteFile> file =
      owner.open(path, pcw::store::OpenMode::kCreate);
  if (!file.ok()) throw std::runtime_error("open: " + file.status().to_string());
  st.file = file.value().id;
  std::vector<std::string> errors(s.names.size());
  std::vector<std::thread> writers;
  for (std::size_t f = 0; f < s.names.size(); ++f) {
    writers.emplace_back([&, f] {
      try {
        pcw::store::Client client = connect(st.daemon->address());
        for (std::uint32_t step = 0; step < kSeedSteps && errors[f].empty(); ++step) {
          const std::vector<float> data = s.step_data(f, step);
          const pcw::Result<pcw::store::RemoteStep> ack = client.write_step(
              st.file, s.names[f], pcw::FieldView::of(data, s.dims), s.ebs[f]);
          if (!ack.ok() || ack.value().step != step) {
            errors[f] = "seed " + s.names[f] + " step " + std::to_string(step) + ": " +
                        (ack.ok() ? "out-of-order ack" : ack.status().to_string());
          }
        }
      } catch (const std::exception& e) {
        errors[f] = e.what();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return st;
}

/// The series file's size and the payload bytes its datasets store.
Storage storage_of(const pcw::Reader& reader) {
  Storage st;
  st.file_bytes = static_cast<double>(reader.file_bytes());
  for (const pcw::DatasetInfo& info : reader.datasets()) {
    st.payload_bytes += static_cast<double>(info.stored_bytes);
  }
  return st;
}

/// One logged read response, re-checked after the run against a local
/// Reader of the final file.
struct LoggedRead {
  std::size_t field = 0;
  std::uint32_t step = 0;
  std::optional<pcw::Region> region;
  std::uint64_t sum = 0;
};

/// What one reader thread measured and saw.
struct ReaderLog {
  std::vector<double> lat, lat_traced;
  double bytes = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<LoggedRead> logged;
};

}  // namespace

Outcome run_store(const RunOptions& opt) {
  const Series s = make_series(opt);
  Outcome out;

  std::vector<double> setups;
  Store store;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (store.daemon) {
      const pcw::Status stopped = store.daemon->stop();
      out.check(stopped.ok(), "set-up pcwd: " + stopped.to_string());
      std::remove(store.path.c_str());
    }
    const double t0 = now_s();
    store = bring_up(opt, s, opt.dir + "/series" + std::to_string(i) + ".pcw5");
    setups.push_back(now_s() - t0);
  }
  const std::string address = store.daemon->address();
  std::unique_ptr<Replay> replay;
  if (opt.traced()) replay = std::make_unique<Replay>(opt, address);
  pcw::store::Client stats_client = connect(address);

  std::atomic<std::uint32_t> newest{kSeedSteps - 1};
  std::atomic<bool> traced_phase{false};
  const double start = now_s();
  const double end = start + opt.seconds;

  // Writer: both fields of the next step each period, timed from when due.
  // Steps written in the traced half are replayed after the window.
  double max_lag = 0.0;
  std::uint64_t writes = 0, writes_failed = 0;
  std::vector<std::pair<std::uint32_t, double>> traced_steps;  // step, latency
  std::thread writer([&] {
    try {
      pcw::store::Client client = connect(address);
      for (int k = 1;; ++k) {
        const double due = start + k * kStepPeriod;
        if (due >= end) break;
        const std::uint32_t step = newest.load() + 1;
        std::vector<std::vector<float>> data;
        for (std::size_t f = 0; f < s.names.size(); ++f) data.push_back(s.step_data(f, step));
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s()));
        max_lag = std::max(max_lag, now_s() - due);
        const bool traced = traced_phase.load();
        for (std::size_t f = 0; f < s.names.size(); ++f) {
          ++writes;
          const pcw::Result<pcw::store::RemoteStep> ack = client.write_step(
              store.file, s.names[f], pcw::FieldView::of(data[f], s.dims), s.ebs[f]);
          if (!ack.ok()) {
            ++writes_failed;
            out.check(false, "WRITE_STEP " + s.names[f] + ": " + ack.status().to_string());
            return;
          }
          out.check(ack.value().step == step, "WRITE_STEP acks are not sequential");
        }
        const double latency = now_s() - due;
        newest.store(step);
        if (traced) traced_steps.emplace_back(step, latency);
      }
    } catch (const std::exception& e) {
      ++writes_failed;
      out.check(false, std::string("writer: ") + e.what());
    }
  });

  // Readers: closed loop until the window ends.
  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::thread> readers;
  for (int id = 0; id < kReaders; ++id) {
    readers.emplace_back([&, id] {
      ReaderLog& log = logs[static_cast<std::size_t>(id)];
      try {
        pcw::store::Client client = connect(address);
        std::mt19937_64 rng(opt.seed * 7919 + static_cast<std::uint64_t>(id));
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        while (now_s() < end) {
          LoggedRead req;
          req.field = static_cast<std::size_t>(unit(rng) * static_cast<double>(s.names.size()));
          const std::uint32_t top = newest.load();
          const auto back = static_cast<std::uint32_t>(
              std::floor(std::log(1.0 - unit(rng)) / std::log(1.0 - kNewestBias)));
          req.step = top - std::min(back, top);
          if (unit(rng) < kPlaneShare) {
            pcw::Region plane = pcw::Region::of(s.dims);
            plane.lo[0] = static_cast<std::size_t>(unit(rng) * static_cast<double>(s.dims.d0));
            plane.hi[0] = plane.lo[0] + 1;
            req.region = plane;
          }
          const bool traced = traced_phase.load();
          ++log.attempted;
          trace::set_thread_op((static_cast<std::uint64_t>(id) + 1) << 32 | log.attempted);
          const double t0 = now_s();
          pcw::Result<pcw::store::RemoteRead> got(pcw::StatusCode::kInternal, "not run");
          {
            trace::Span span("store.client.read_step", "pcw");
            got = client.read_step(store.file, s.names[req.field], req.step, req.region,
                                   pcw::DType::kFloat32);
          }
          const double dt = now_s() - t0;
          if (!got.ok()) {
            ++log.failed;
            if (log.first_error.empty()) log.first_error = got.status().to_string();
            continue;
          }
          (traced ? log.lat_traced : log.lat).push_back(dt);
          log.bytes += static_cast<double>(got.value().bytes.size());
          if (log.attempted % kLogEvery == 0) {
            req.sum = checksum(got.value().bytes.data(), got.value().bytes.size());
            log.logged.push_back(req);
          }
        }
      } catch (const std::exception& e) {
        ++log.failed;
        log.first_error = e.what();
      }
    });
  }

  // Traced runs: the second half of the window is traced; the daemon's
  // counters over that half become the store's per-layer metrics.
  Counters stats_before;
  std::string stats_error;
  if (opt.traced()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(start + opt.seconds / 2 - now_s()));
    try {
      stats_before = remote_counters(stats_client);
    } catch (const std::exception& e) {
      stats_error = e.what();
    }
    trace::enable();
    traced_phase.store(true);
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  const double window = now_s() - start;
  out.check(stats_error.empty(), stats_error);
  const Counters stats_after = remote_counters(stats_client);

  // Replays run only now, so they neither compete with the readers nor
  // show in the daemon's counters above.
  if (replay) {
    for (const auto& [step, latency] : traced_steps) {
      replay->record("store.step_write_ms", latency * 1e3);
      const SeriesStep target{store.file, store.path, s.names[0], step};
      replay->run(s.step_data(0, step), s.dims, s.ebs[0], out, &target);
    }
  }

  std::vector<double> lat, lat_traced;
  double bytes = 0.0;
  out.attempted = writes;
  out.failed = writes_failed;
  std::vector<LoggedRead> logged;
  for (const ReaderLog& log : logs) {
    lat.insert(lat.end(), log.lat.begin(), log.lat.end());
    lat_traced.insert(lat_traced.end(), log.lat_traced.begin(), log.lat_traced.end());
    bytes += log.bytes;
    out.attempted += log.attempted;
    out.failed += log.failed;
    logged.insert(logged.end(), log.logged.begin(), log.logged.end());
    out.check(log.first_error.empty(), "reader: " + log.first_error);
  }

  // Correctness: logged responses match a local Reader of the final file,
  // the newest step of each field is within its error bound, and the file
  // scrubs clean.
  const std::uint32_t last = newest.load();
  Storage storage;
  {
    const pcw::Result<pcw::Reader> local = pcw::Reader::open(store.path);
    out.check(local.ok(), "local open: " + local.status().to_string());
    if (local.ok()) {
      storage = storage_of(local.value());
      std::size_t mismatched = 0;
      for (const LoggedRead& req : logged) {
        const pcw::Result<std::vector<std::uint8_t>> again = pcw::restart_bytes(
            local.value(), s.names[req.field], req.step, pcw::DType::kFloat32, req.region);
        if (!again.ok() || checksum(again.value().data(), again.value().size()) != req.sum) {
          ++mismatched;
        }
      }
      out.check(mismatched == 0, std::to_string(mismatched) + " of " +
                                     std::to_string(logged.size()) +
                                     " logged READ_STEP responses differ from a local restart");
      for (std::size_t f = 0; f < s.names.size(); ++f) {
        const pcw::Result<std::vector<float>> got =
            pcw::restart<float>(local.value(), s.names[f], last);
        out.check(got.ok() && max_abs_diff(got.value(), s.step_data(f, last)) <= s.ebs[f],
                  "step " + std::to_string(last) + " of " + s.names[f] +
                      " exceeds its error bound");
      }
    }
    const pcw::Result<pcw::ScrubReport> scrub = stats_client.scrub(store.file);
    out.check(scrub.ok() && scrub.value().ok(), "series file does not scrub clean");
  }
  (void)stats_client.close();
  if (replay) replay->finish(out);
  const pcw::Status stopped = store.daemon->stop();
  out.check(stopped.ok(), "pcwd: " + stopped.to_string());

  if (opt.traced()) {
    PathStats path;
    const Counters d = stats_after - stats_before;
    path.add_counters(stats_before, stats_after, std::max(1.0, get(d, "store_requests")));
    const double lookups = get(d, "store_cache_hits") + get(d, "store_cache_misses") +
                           get(d, "store_coalesced");
    path.add("store.cache_hit_ratio",
             lookups > 0 ? 100.0 * get(d, "store_cache_hits") / lookups : 0.0);
    path.add("store.cache_evictions", get(d, "store_cache_evictions"));
    path.add("store.coalesced", get(d, "store_coalesced"));
    const double batches = get(d, "store_write_batches");
    path.add("store.steps_per_batch", batches > 0 ? get(d, "series_steps") / batches : 0.0);
    path.add("store.cache_hiwater_mb", get(stats_after, "store_cache_hiwater") / 1e6);
    path.add("store.writer_lag_pct", 100.0 * max_lag / kStepPeriod);
    path.add("trace_overhead_pct", trace_overhead_pct(lat, lat_traced));
    path.report(out);
  } else {
    report_ops(lat, 0.99, bytes / 1e6 / window, out);
    report_storage(storage, s.raw_bytes_per_step() * static_cast<double>(last + 1), out);
    out.e2e("setup_s", median(setups), "s");
    out.e2e("rss_peak_mb", store.daemon->peak_rss_mb(), "MB");
  }
  return out;
}

}  // namespace pcw_bench

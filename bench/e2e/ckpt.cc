// Checkpoint workloads (one Fig. 4 write mode each, Nyx 3-D or VPIC 1-D)
// and the restart workload, all on 4 SPMD ranks through the pcw façade.
//
// Every round writes a distinct checkpoint: each rank blends its two
// generated frames, (1 - a) A + a B, before the timed region. The timed
// op is the whole checkpoint as an application sees it: create the file,
// write every field, and close, which commits (fsync, footer, fsync).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "pcw/workloads.h"

namespace pcw_bench {
namespace {

constexpr int kRanks = 4;
constexpr int kSetupRepeats = 5;

/// A workload's inputs: per rank and field, the two frames each round
/// blends into the data it writes. Ranks own contiguous slabs along the
/// slowest axis, so rank r's slice is exactly restart_region(global, r, 4).
struct Frames {
  pcw::Dims global;
  pcw::Dims local;
  std::vector<std::string> names;
  std::vector<double> ebs;
  std::vector<std::vector<std::vector<float>>> a, b;  // [rank][field]

  std::size_t fields() const { return names.size(); }
  double raw_bytes() const {
    return static_cast<double>(global.count() * sizeof(float) * fields());
  }
  pcw::Region slab(int rank) const {
    const auto r = static_cast<std::size_t>(rank);
    pcw::Region out = pcw::Region::of(global);
    if (global.d0 > 1) {
      out.lo[0] = r * local.d0;
      out.hi[0] = (r + 1) * local.d0;
    } else {
      out.lo[2] = r * local.d2;
      out.hi[2] = (r + 1) * local.d2;
    }
    return out;
  }
  /// Sizes every frame; returns them all, in cache-file order.
  std::vector<std::vector<float>*> allocate() {
    const std::vector<float> frame(local.count());
    a.assign(kRanks, std::vector<std::vector<float>>(fields(), frame));
    b = a;
    std::vector<std::vector<float>*> all;
    for (auto* set : {&a, &b}) {
      for (auto& rank : *set) {
        for (auto& v : rank) all.push_back(&v);
      }
    }
    return all;
  }
  void blend_into(int rank, double alpha, std::vector<std::vector<float>>& out) const {
    const auto r = static_cast<std::size_t>(rank);
    out.resize(fields());
    for (std::size_t f = 0; f < fields(); ++f) blend(a[r][f], b[r][f], alpha, out[f]);
  }
};

/// Deletes `path` and commits the deletion, so the filesystem's freeing
/// work (block discard on `-o discard` mounts) happens here, outside the
/// timed region, rather than inside the next checkpoint's fsync.
void remove_committed(const std::string& path) {
  if (std::remove(path.c_str()) != 0) return;
  const std::string dir = path.substr(0, path.find_last_of('/'));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

void run_or_throw(const std::function<void(pcw::Rank&)>& body) {
  const pcw::Status ran = pcw::run(kRanks, body);
  if (!ran.ok()) throw std::runtime_error(ran.to_string());
}

/// Nyx: 6 fields on a 64x256x256 grid (100.7 MB per checkpoint); frame B
/// is the same universe later in cosmic time.
Frames make_nyx(const RunOptions& opt) {
  Frames f;
  f.global = opt.smoke ? pcw::Dims::make_3d(16, 32, 32) : pcw::Dims::make_3d(64, 256, 256);
  f.local = {f.global.d0 / kRanks, f.global.d1, f.global.d2};
  for (int i = 0; i < pcw::data::kNyxPrimaryFields; ++i) {
    const auto info = pcw::data::nyx_field_info(static_cast<pcw::data::NyxField>(i));
    f.names.emplace_back(info.name);
    f.ebs.push_back(info.abs_error_bound);
  }
  load_or_generate(opt, "nyx_" + frames_tag(f.global), f.allocate(), [&] {
    run_or_throw([&](pcw::Rank& rank) {
      const auto r = static_cast<std::size_t>(rank.rank());
      const std::array<std::size_t, 3> origin{r * f.local.d0, 0, 0};
      for (std::size_t i = 0; i < f.fields(); ++i) {
        const auto field = static_cast<pcw::data::NyxField>(i);
        pcw::data::fill_nyx_field(f.a[r][i], f.local, origin, f.global, field, kDatasetSeed, 0.0);
        pcw::data::fill_nyx_field(f.b[r][i], f.local, origin, f.global, field, kDatasetSeed, 0.5);
      }
    });
  });
  return f;
}

/// VPIC: 8 particle fields of 2^22 particles, 1-D (134 MB per checkpoint);
/// frame B is an independent population.
Frames make_vpic(const RunOptions& opt) {
  Frames f;
  const std::size_t n = opt.smoke ? (std::size_t{1} << 14) : (std::size_t{1} << 22);
  f.global = pcw::Dims::make_1d(n);
  f.local = pcw::Dims::make_1d(n / kRanks);
  for (int i = 0; i < pcw::data::kVpicAllFields; ++i) {
    const auto info = pcw::data::vpic_field_info(static_cast<pcw::data::VpicField>(i));
    f.names.emplace_back(info.name);
    f.ebs.push_back(info.abs_error_bound);
  }
  load_or_generate(opt, "vpic_" + frames_tag(f.global), f.allocate(), [&] {
    run_or_throw([&](pcw::Rank& rank) {
      const auto r = static_cast<std::size_t>(rank.rank());
      for (std::size_t i = 0; i < f.fields(); ++i) {
        const auto field = static_cast<pcw::data::VpicField>(i);
        pcw::data::fill_vpic_field(f.a[r][i], r * f.local.count(), n, field, kDatasetSeed);
        pcw::data::fill_vpic_field(f.b[r][i], r * f.local.count(), n, field, kDatasetSeed + 1);
      }
    });
  });
  return f;
}

/// Every rank's blend of the frames, in parallel.
void blend_all(const Frames& f, double alpha, std::vector<std::vector<std::vector<float>>>& work) {
  run_or_throw([&](pcw::Rank& rank) {
    f.blend_into(rank.rank(), alpha, work[static_cast<std::size_t>(rank.rank())]);
  });
}

struct CkptSpec {
  bool vpic = false;
  pcw::WriteMode mode = pcw::WriteMode::kOverlapReorder;
};

CkptSpec ckpt_spec(const std::string& workload) {
  if (workload == "nyx_overlap") return {false, pcw::WriteMode::kOverlapReorder};
  if (workload == "nyx_filter") return {false, pcw::WriteMode::kFilterCollective};
  if (workload == "nyx_raw") return {false, pcw::WriteMode::kNoCompression};
  if (workload == "vpic_overlap") return {true, pcw::WriteMode::kOverlapReorder};
  throw std::invalid_argument("unknown checkpoint workload " + workload);
}

/// State one checkpoint shares across the ranks writing it.
struct Checkpoint {
  pcw::Writer writer;
  std::vector<pcw::WriteReport> reports = std::vector<pcw::WriteReport>(kRanks);
};

/// Collective: rank 0 creates `path`, every rank writes its slab of every
/// field, and the group closes (commits) the file. Throws on failure.
void write_checkpoint(pcw::Rank& rank, const Frames& f,
                      const std::vector<std::vector<float>>& mine, pcw::WriteMode mode,
                      const std::string& path, Checkpoint& ck) {
  if (rank.rank() == 0) {
    trace::Span s("pcw.create", "pcw");
    pcw::Result<pcw::Writer> writer =
        pcw::Writer::create(path, pcw::WriterOptions().with_mode(mode));
    if (!writer.ok()) throw std::runtime_error("create: " + writer.status().to_string());
    ck.writer = std::move(writer).value();
  }
  rank.barrier();
  std::vector<pcw::Field> fields;
  for (std::size_t i = 0; i < f.fields(); ++i) {
    fields.push_back({f.names[i], pcw::FieldView::of(mine[i], f.local), f.global,
                      pcw::CodecOptions().with_error_bound(f.ebs[i])});
  }
  {
    trace::Span s("pcw.write", "pcw");
    pcw::Result<pcw::WriteReport> report = ck.writer.write(rank, fields);
    if (!report.ok()) throw std::runtime_error("write: " + report.status().to_string());
    ck.reports[static_cast<std::size_t>(rank.rank())] = std::move(report).value();
  }
  trace::Span s("pcw.close", "pcw");
  const pcw::Status closed = ck.writer.close(rank);
  if (!closed.ok()) throw std::runtime_error("close: " + closed.to_string());
}

/// Decodes every rank's slab of every field of `path` and checks it
/// against the blended inputs: within each field's error bound, or
/// bit-exact when `exact` (raw mode); the file must also scrub clean.
void verify_checkpoint(const std::string& path, const Frames& f, double alpha, bool exact,
                       Outcome& out) {
  const pcw::Result<pcw::Reader> reader = pcw::Reader::open(path);
  if (!reader.ok()) {
    out.check(false, path + ": open " + reader.status().to_string());
    return;
  }
  const pcw::Result<pcw::ScrubReport> scrub = reader->scrub();
  out.check(scrub.ok() && scrub->ok(), path + ": scrub is not clean");
  std::vector<std::vector<float>> expected;
  for (int r = 0; r < kRanks; ++r) {
    f.blend_into(r, alpha, expected);
    for (std::size_t i = 0; i < f.fields(); ++i) {
      const pcw::Result<std::vector<float>> got = reader->read_region<float>(f.names[i], f.slab(r));
      const bool ok = got.ok() && (exact ? got.value() == expected[i]
                                         : max_abs_diff(got.value(), expected[i]) <= f.ebs[i]);
      out.check(ok, path + ": " + f.names[i] + " rank " + std::to_string(r) +
                        (exact ? " is not bit-exact" : " exceeds its error bound"));
    }
  }
}

/// Engine phase shares of one checkpoint (max over ranks: the slowest rank
/// sets the checkpoint's time) plus slot and overflow accounting.
void add_write_phases(const std::vector<pcw::WriteReport>& reports, double op_s,
                      PathStats& path) {
  pcw::WriteReport worst;
  double compressed = 0.0, reserved = 0.0, overflow_parts = 0.0;
  for (const pcw::WriteReport& r : reports) {
    worst.predict_seconds = std::max(worst.predict_seconds, r.predict_seconds);
    worst.exchange_seconds = std::max(worst.exchange_seconds, r.exchange_seconds);
    worst.compress_seconds = std::max(worst.compress_seconds, r.compress_seconds);
    worst.write_seconds = std::max(worst.write_seconds, r.write_seconds);
    worst.overflow_seconds = std::max(worst.overflow_seconds, r.overflow_seconds);
    compressed += static_cast<double>(r.compressed_bytes);
    reserved += static_cast<double>(r.reserved_bytes);
    overflow_parts += r.overflow_partitions;
  }
  path.add("core.predict_pct", 100.0 * worst.predict_seconds / op_s);
  path.add("core.exchange_pct", 100.0 * worst.exchange_seconds / op_s);
  path.add("core.compress_pct", 100.0 * worst.compress_seconds / op_s);
  path.add("core.write_exposed_pct", 100.0 * worst.write_seconds / op_s);
  path.add("core.overflow_pct", 100.0 * worst.overflow_seconds / op_s);
  path.add("model.slot_fill_pct", reserved > 0 ? 100.0 * compressed / reserved : 0.0);
  path.add("model.overflow_partitions", overflow_parts);
}

}  // namespace

Outcome run_ckpt(const RunOptions& opt) {
  const CkptSpec spec = ckpt_spec(opt.workload);
  const Frames f = spec.vpic ? make_vpic(opt) : make_nyx(opt);
  const bool raw_mode = spec.mode == pcw::WriteMode::kNoCompression;
  Outcome out;
  std::vector<std::vector<std::vector<float>>> work(kRanks);  // [rank][field]
  const double inputs_mb = 3.0 * f.raw_bytes() / (1024.0 * 1024.0);  // A, B, work
  std::unique_ptr<Replay> replay;
  if (opt.traced()) replay = std::make_unique<Replay>(opt, "");

  // Set-up: a fresh SPMD group bringing the write path up from nothing and
  // landing one checkpoint, several times over.
  blend_all(f, blend_alpha(opt.seed, 0), work);
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Checkpoint ck;
    const double t0 = now_s();
    run_or_throw([&](pcw::Rank& rank) {
      write_checkpoint(rank, f, work[static_cast<std::size_t>(rank.rank())], spec.mode,
                       opt.dir + "/setup.pcw5", ck);
    });
    setups.push_back(now_s() - t0);
  }
  remove_committed(opt.dir + "/setup.pcw5");

  // Measurement: one SPMD group, one fresh file per round. Round 0 keeps
  // its own file for verification; later rounds alternate two names, and
  // each file is deleted outside the timed region two rounds later.
  const auto file_for = [&](int round) {
    return opt.dir + (round == 0 ? "/ckpt_first.pcw5"
                                 : "/ckpt_" + std::to_string(round % 2) + ".pcw5");
  };
  std::vector<double> lat, lat_traced;
  PathStats path;
  Checkpoint ck;
  Storage written;  // over every round: the blend weights average out
  Counters before;
  int rounds = 0;
  bool traced_phase = false, stop = false;
  double t0 = 0.0;
  const double start = now_s();
  const pcw::Status ran = pcw::run(kRanks, [&](pcw::Rank& rank) {
    const int me = rank.rank();
    auto& mine = work[static_cast<std::size_t>(me)];
    for (int round = 0;; ++round) {
      f.blend_into(me, blend_alpha(opt.seed, static_cast<std::uint64_t>(round)), mine);
      if (me == 0) {
        remove_committed(file_for(round));
        if (replay && traced_phase && round % 4 == 0) {
          replay->run(mine[0], f.local, f.ebs[0], out);
        }
        before = local_counters();
      }
      rank.barrier();
      if (me == 0) {
        rounds = round + 1;
        t0 = now_s();
        trace::begin_op(static_cast<std::uint64_t>(round));
      }
      write_checkpoint(rank, f, mine, spec.mode, file_for(round), ck);
      rank.barrier();
      if (me == 0) {
        const double dt = now_s() - t0;
        trace::end_op();
        (traced_phase ? lat_traced : lat).push_back(dt);
        written.file_bytes += static_cast<double>(ck.writer.file_bytes());
        for (const pcw::WriteReport& r : ck.reports) {
          written.payload_bytes += static_cast<double>(r.compressed_bytes);
        }
        if (traced_phase) {
          path.add_counters(before, local_counters(), 1.0);
          add_write_phases(ck.reports, dt, path);
        }
        const double elapsed = now_s() - start;
        if (opt.traced() && !traced_phase && elapsed >= opt.seconds / 2) {
          traced_phase = true;
          trace::enable();
        }
        stop = elapsed >= opt.seconds;
      }
      rank.barrier();
      if (stop) break;
    }
  });
  out.attempted = static_cast<std::uint64_t>(rounds);
  if (!ran.ok()) {
    out.failed = 1;
    out.check(false, "checkpoint round " + std::to_string(rounds - 1) + ": " + ran.to_string());
  }
  const double rss = peak_rss_mb() - inputs_mb;

  verify_checkpoint(file_for(0), f, blend_alpha(opt.seed, 0), raw_mode, out);
  if (rounds > 1) {
    verify_checkpoint(file_for(rounds - 1), f,
                      blend_alpha(opt.seed, static_cast<std::uint64_t>(rounds - 1)), raw_mode,
                      out);
  }
  if (opt.traced()) {
    path.add("trace_overhead_pct", trace_overhead_pct(lat, lat_traced));
    path.report(out);
    replay->finish(out);
  } else {
    // The tail is the highest percentile with ~10 rounds beyond it: VPIC
    // checkpoints take twice as long, so half as many fit in a run.
    report_ops(lat, spec.vpic ? 0.8 : 0.9, mb_per_busy_s(lat, f.raw_bytes()), out);
    report_storage(written, f.raw_bytes() * rounds, out);
    out.e2e("setup_s", median(setups), "s");
    out.e2e("rss_peak_mb", rss, "MB");
  }
  for (int r : {0, 1, 2}) std::remove(file_for(r).c_str());
  return out;
}

Outcome run_restart(const RunOptions& opt) {
  const Frames f = make_nyx(opt);
  Outcome out;
  std::vector<std::vector<std::vector<float>>> work(kRanks);
  const double inputs_mb = 3.0 * f.raw_bytes() / (1024.0 * 1024.0);
  const std::string file = opt.dir + "/restart.pcw5";
  std::unique_ptr<Replay> replay;
  if (opt.traced()) replay = std::make_unique<Replay>(opt, "");

  // Set-up: write the checkpoint the restarts read (default mode) and
  // open it, several times over, each time from another blend; the last
  // one stays. Storage is accounted over all of them.
  std::vector<double> setups;
  Storage written;
  for (int i = 0; i < kSetupRepeats; ++i) {
    blend_all(f, blend_alpha(opt.seed, static_cast<std::uint64_t>(i)), work);
    Checkpoint ck;
    const double t0 = now_s();
    run_or_throw([&](pcw::Rank& rank) {
      write_checkpoint(rank, f, work[static_cast<std::size_t>(rank.rank())],
                       pcw::WriteMode::kOverlapReorder, file, ck);
    });
    const pcw::Result<pcw::Reader> opened = pcw::Reader::open(file);
    setups.push_back(now_s() - t0);
    if (!opened.ok()) throw std::runtime_error("open: " + opened.status().to_string());
    written.file_bytes += static_cast<double>(opened->file_bytes());
    for (const pcw::WriteReport& r : ck.reports) {
      written.payload_bytes += static_cast<double>(r.compressed_bytes);
    }
  }

  // Measurement: each round rank 0 opens the file (one handle shared by
  // the group), then every rank restarts its slab of every field. Round 0
  // is checked against the inputs; every later round must reproduce round
  // 0's bytes exactly.
  std::vector<double> lat, lat_traced;
  std::vector<pcw::ReadReport> reports(kRanks);
  std::vector<std::uint64_t> first_sums(kRanks), mismatches(kRanks);
  PathStats path;
  pcw::Reader reader;
  Counters before;
  int rounds = 0;
  bool traced_phase = false, stop = false;
  double t0 = 0.0;
  const double start = now_s();
  const pcw::Status ran = pcw::run(kRanks, [&](pcw::Rank& rank) {
    const int me = rank.rank();
    const auto r = static_cast<std::size_t>(me);
    std::vector<pcw::ReadRequest> mine;
    for (std::size_t i = 0; i < f.fields(); ++i) {
      mine.push_back({f.names[i], pcw::restart_region(f.global, me, kRanks)});
    }
    for (int round = 0;; ++round) {
      if (me == 0) {
        if (replay && traced_phase && round % 8 == 0) {
          replay->run(work[0][0], f.local, f.ebs[0], out);
        }
        before = local_counters();
      }
      rank.barrier();
      if (me == 0) {
        rounds = round + 1;
        t0 = now_s();
        trace::begin_op(static_cast<std::uint64_t>(round));
        trace::Span s("pcw.open", "pcw");
        pcw::Result<pcw::Reader> opened = pcw::Reader::open(file);
        if (!opened.ok()) throw std::runtime_error("open: " + opened.status().to_string());
        reader = std::move(opened).value();
      }
      rank.barrier();
      reports[r] = pcw::ReadReport{};
      pcw::Result<std::vector<std::vector<float>>> got(pcw::StatusCode::kInternal, "not run");
      {
        trace::Span s("pcw.read_fields", "pcw");
        got = reader.read_fields<float>(rank, mine, &reports[r]);
      }
      if (!got.ok()) throw std::runtime_error("read_fields: " + got.status().to_string());
      rank.barrier();
      if (me == 0) {
        const double dt = now_s() - t0;
        trace::end_op();
        reader = pcw::Reader();
        (traced_phase ? lat_traced : lat).push_back(dt);
        if (traced_phase) {
          path.add_counters(before, local_counters(), 1.0);
          double plan = 0.0, io = 0.0, decode = 0.0;
          for (const pcw::ReadReport& rep : reports) {
            plan = std::max(plan, rep.plan_seconds);
            io = std::max(io, rep.read_seconds);
            decode = std::max(decode, rep.decompress_seconds);
          }
          path.add("core.read_plan_pct", 100.0 * plan / dt);
          path.add("core.read_io_pct", 100.0 * io / dt);
          path.add("core.read_decode_pct", 100.0 * decode / dt);
        }
        const double elapsed = now_s() - start;
        if (opt.traced() && !traced_phase && elapsed >= opt.seconds / 2) {
          traced_phase = true;
          trace::enable();
        }
        stop = elapsed >= opt.seconds;
      }
      std::uint64_t sum = 0;
      for (const std::vector<float>& v : got.value()) {
        sum = sum * 31 + checksum(v.data(), v.size() * sizeof(float));
      }
      if (round == 0) {
        first_sums[r] = sum;
        for (std::size_t i = 0; i < f.fields(); ++i) {
          if (max_abs_diff(got.value()[i], work[r][i]) > f.ebs[i]) ++mismatches[r];
        }
      } else if (sum != first_sums[r]) {
        ++mismatches[r];
      }
      rank.barrier();
      if (stop) break;
    }
  });
  out.attempted = static_cast<std::uint64_t>(rounds);
  if (!ran.ok()) {
    out.failed = 1;
    out.check(false, "restart round " + std::to_string(rounds - 1) + ": " + ran.to_string());
  }
  const double rss = peak_rss_mb() - inputs_mb;
  for (int r = 0; r < kRanks; ++r) {
    out.check(mismatches[static_cast<std::size_t>(r)] == 0,
              "restart rank " + std::to_string(r) +
                  ": round 0 exceeds the error bound or a later round differs from it");
  }

  if (opt.traced()) {
    path.add("trace_overhead_pct", trace_overhead_pct(lat, lat_traced));
    path.report(out);
    replay->finish(out);
  } else {
    report_ops(lat, 0.9, mb_per_busy_s(lat, f.raw_bytes()), out);
    report_storage(written, f.raw_bytes() * kSetupRepeats, out);
    out.e2e("setup_s", median(setups), "s");
    out.e2e("rss_peak_mb", rss, "MB");
  }
  std::remove(file.c_str());
  return out;
}

}  // namespace pcw_bench

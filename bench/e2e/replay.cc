// The traced run's per-layer replay: each layer's public functions called
// directly on one sample partition of the workload's own inputs, between
// timed ops, each call inside a benchmark-owned span. This is how every
// per-layer time exists on every workload, including workloads whose
// timed path skips a layer (raw mode never calls sz or the model).
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "pcw/bridge.h"
#include "pcw/kernels.h"
#include "pcw/models.h"
#include "pcw/sim.h"

namespace pcw_bench {
namespace {

/// The paper's Summit fit of Eq. (1), the writer's default compression
/// model; comp_time_err_pct measures it against this host.
const pcw::model::CompressionThroughputModel kSummitFit{101.7e6, 240.6e6, -1.716};

constexpr std::pair<const char*, const char*> kReplayMetrics[] = {
    {"model.estimate_ms", "ms"},     {"model.ratio_err_pct", "%"},
    {"model.comp_time_err_pct", "%"}, {"sz.compress_mb_s", "MB/s"},
    {"sz.decompress_mb_s", "MB/s"},  {"sz.region_decode_ms", "ms"},
    {"sz.ratio", "x"},               {"h5.pwrite_mb_s", "MB/s"},
    {"h5.commit_ms", "ms"},          {"h5.pread_mb_s", "MB/s"},
    {"mpi.allgather_us", "us"},      {"mpi.barrier_us", "us"},
    {"pcw.write_ms", "ms"},          {"pcw.close_ms", "ms"},
    {"pcw.read_ms", "ms"},           {"store.step_write_ms", "ms"},
    {"store.ping_ms", "ms"},         {"store.read_step_ms", "ms"},
    {"store.local_restart_ms", "ms"},
};

/// One slab across the slowest axis: the middle x-plane of a 3-D field, or
/// the middle 1/64 of a 1-D one.
pcw::Region middle_slice(const pcw::Dims& d) {
  pcw::Region r = pcw::Region::of(d);
  if (d.d0 > 1) {
    r.lo[0] = d.d0 / 2;
    r.hi[0] = r.lo[0] + 1;
  } else {
    r.lo[2] = d.d2 / 2;
    r.hi[2] = r.lo[2] + std::max<std::size_t>(1, d.d2 / 64);
  }
  return r;
}

}  // namespace

Replay::Replay(const RunOptions& opt, const std::string& store_address) : opt_(opt) {
  std::string address = store_address;
  if (address.empty()) {
    own_daemon_ = std::make_unique<Daemon>(opt.pcwd, opt.dir);
    address = own_daemon_->address();
  }
  pcw::Result<pcw::store::Client> client = pcw::store::Client::connect(address);
  if (!client.ok()) throw std::runtime_error("replay connect: " + client.status().to_string());
  client_ = std::move(client).value();
  if (!own_daemon_) return;
  own_series_.path = opt.dir + "/replay_series.pcw5";
  own_series_.field = "replay";
  pcw::Result<pcw::store::RemoteFile> file =
      client_.open(own_series_.path, pcw::store::OpenMode::kCreate);
  if (!file.ok()) throw std::runtime_error("replay open: " + file.status().to_string());
  own_series_.file = file.value().id;
}

void Replay::run(const std::vector<float>& x, const pcw::Dims& dims, double eb, Outcome& out,
                 const SeriesStep* target) {
  using namespace pcw;
  trace::Span whole("replay", "bench");
  const sz::Dims d = as_internal(dims);
  const std::span<const float> xs(x);
  const double raw = static_cast<double>(x.size() * sizeof(float));
  const double mb = raw / 1e6;
  const Region slice = middle_slice(dims);
  sz::Params params;
  params.error_bound = eb;

  // model + sz
  model::RatioEstimate estimate;
  {
    trace::Span s("model.estimate_ratio", "model");
    estimate = model::estimate_ratio<float>(xs, d, params);
    record("model.estimate_ms", s.seconds() * 1e3);
  }
  std::vector<std::uint8_t> blob;
  double compress_s = 0.0;
  {
    trace::Span s("sz.compress", "sz");
    blob = sz::compress<float>(xs, d, params);
    compress_s = s.seconds();
  }
  const double actual = static_cast<double>(blob.size());
  record("sz.compress_mb_s", mb / compress_s);
  record("sz.ratio", raw / actual);
  record("model.ratio_err_pct",
         100.0 * std::fabs(estimate.bit_rate / 8.0 * static_cast<double>(x.size()) - actual) /
             actual);
  const double predicted_s = kSummitFit.predict_time(raw, sz::bit_rate(blob.size(), x.size()));
  record("model.comp_time_err_pct", 100.0 * std::fabs(predicted_s - compress_s) / compress_s);
  {
    trace::Span s("sz.decompress", "sz");
    const std::vector<float> back = sz::decompress<float>(blob);
    record("sz.decompress_mb_s", mb / s.seconds());
    out.check(max_abs_diff(back, x) <= eb, "replay: sz::decompress exceeds the error bound");
  }
  {
    trace::Span s("sz.decompress_region", "sz");
    const std::vector<float> part = sz::decompress_region<float>(blob, as_internal(slice));
    record("sz.region_decode_ms", s.seconds() * 1e3);
    out.check(part.size() == slice.count(), "replay: sz::decompress_region size");
  }

  // h5: the raw sample through a scratch file
  {
    h5::FileOptions fopts;
    fopts.atomic_create = false;
    const auto file = h5::File::create(opt_.dir + "/replay.h5", fopts);
    const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(x.data()),
                                              x.size() * sizeof(float));
    const std::uint64_t offset = file->alloc(bytes.size());
    {
      trace::Span s("h5.pwrite", "h5");
      file->pwrite(offset, bytes);
      record("h5.pwrite_mb_s", mb / s.seconds());
    }
    {
      trace::Span s("h5.commit", "h5");
      file->commit();
      record("h5.commit_ms", s.seconds() * 1e3);
    }
    {
      trace::Span s("h5.pread", "h5");
      const std::vector<std::uint8_t> back = file->pread(offset, bytes.size());
      record("h5.pread_mb_s", mb / s.seconds());
      out.check(std::equal(back.begin(), back.end(), bytes.begin(), bytes.end()),
                "replay: h5 pread differs from pwrite");
    }
  }

  // mpi: rank 0's median over repeated small collectives on 4 ranks
  {
    trace::Span s("mpi.collectives", "mpi");
    std::vector<double> gather, barrier;
    mpi::Runtime::run(4, [&](mpi::Comm& comm) {
      const std::vector<std::uint64_t> mine(8, static_cast<std::uint64_t>(comm.rank()));
      for (int i = 0; i < 32; ++i) {
        comm.barrier();
        const double t0 = now_s();
        const auto all = comm.allgatherv<std::uint64_t>(mine);
        const double t1 = now_s();
        if (comm.rank() == 0 && all.size() == 4) gather.push_back(t1 - t0);
      }
      for (int i = 0; i < 32; ++i) {
        comm.barrier();
        const double t0 = now_s();
        comm.barrier();
        if (comm.rank() == 0) barrier.push_back(now_s() - t0);
      }
    });
    record("mpi.allgather_us", median(gather) * 1e6);
    record("mpi.barrier_us", median(barrier) * 1e6);
  }

  // pcw façade: one single-rank checkpoint of the sample, then read back
  {
    const std::string path = opt_.dir + "/replay.pcw5";
    Result<Writer> writer = Writer::create(path);
    out.check(writer.ok(), "replay: Writer::create " + writer.status().to_string());
    const Field field{"replay", FieldView::of(x, dims), dims,
                      CodecOptions().with_error_bound(eb)};
    const Status ran = pcw::run(1, [&](Rank& rank) {
      {
        trace::Span s("pcw.write", "pcw");
        const Result<WriteReport> wrote = writer->write(rank, {&field, 1});
        if (!wrote.ok()) throw std::runtime_error(wrote.status().to_string());
        record("pcw.write_ms", s.seconds() * 1e3);
      }
      trace::Span s("pcw.close", "pcw");
      const Status closed = writer->close(rank);
      if (!closed.ok()) throw std::runtime_error(closed.to_string());
      record("pcw.close_ms", s.seconds() * 1e3);
    });
    out.check(ran.ok(), "replay: façade write " + ran.to_string());
    trace::Span s("pcw.read", "pcw");
    const Result<Reader> reader = Reader::open(path);
    const Result<std::vector<float>> back =
        reader.ok() ? reader->read<float>("replay") : Result<std::vector<float>>(reader.status());
    record("pcw.read_ms", s.seconds() * 1e3);
    out.check(back.ok() && max_abs_diff(back.value(), x) <= eb,
              "replay: façade read exceeds the error bound");
  }

  // pcwd: ping, read a slice of one series step remotely, then the same
  // request through a local Reader. Without a target the replay first
  // appends the sample to its own series and reads that step.
  SeriesStep step = target != nullptr ? *target : own_series_;
  if (target == nullptr) {
    Result<store::RemoteStep> ack(StatusCode::kInternal, "not run");
    {
      trace::Span s("store.write_step", "store");
      ack = client_.write_step(step.file, step.field, FieldView::of(x, dims), eb);
      record("store.step_write_ms", s.seconds() * 1e3);
    }
    if (!ack.ok()) {
      out.check(false, "replay: WRITE_STEP " + ack.status().to_string());
      return;
    }
    step.step = ack.value().step;
  }
  {
    trace::Span s("store.ping", "store");
    const Status pinged = client_.ping();
    record("store.ping_ms", s.seconds() * 1e3);
    out.check(pinged.ok(), "replay: PING " + pinged.to_string());
  }
  Result<store::RemoteRead> remote(StatusCode::kInternal, "not run");
  {
    trace::Span s("store.read_step", "store");
    remote = client_.read_step(step.file, step.field, step.step, slice, DType::kFloat32);
    record("store.read_step_ms", s.seconds() * 1e3);
  }
  trace::Span s("store.local_restart", "store");
  const Result<Reader> reader = Reader::open(step.path);
  const Result<std::vector<std::uint8_t>> local =
      reader.ok() ? restart_bytes(reader.value(), step.field, step.step, DType::kFloat32, slice)
                  : Result<std::vector<std::uint8_t>>(reader.status());
  record("store.local_restart_ms", s.seconds() * 1e3);
  out.check(remote.ok() && local.ok() && remote.value().bytes == local.value(),
            "replay: remote READ_STEP differs from the local restart");
}

void Replay::finish(Outcome& out) {
  for (const auto& [name, unit] : kReplayMetrics) {
    const auto it = samples_.find(name);
    out.layer(name, it == samples_.end() ? 0.0 : median(it->second), unit);
  }
  (void)client_.close();
  if (own_daemon_) {
    const pcw::Status stopped = own_daemon_->stop();
    out.check(stopped.ok(), "replay pcwd: " + stopped.to_string());
  }
}

}  // namespace pcw_bench

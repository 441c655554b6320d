// Read-path benchmark: the measured baseline for the parallel restart /
// read engine, emitted as machine-readable JSON with `--json` (schema
// pcw.bench_read.v1 -> BENCH_read.json). Drives the engine through the
// public pcw:: façade (Writer/Reader/run).
//
// Scenarios:
//   * full_restart  — N ranks read every field whole, across a thread
//                     sweep and with the read/decode pipeline on/off
//                     (threads=1 + pipeline=off is the serial baseline).
//                     serial_noverify/serial_verify rows isolate the cost
//                     of checksum verification (off vs blob-level CRC);
//                     check_bench.py gates the overhead at < 5%. The
//                     decode_ref row has every rank decode the same
//                     partition blobs from memory through pcw::decode_blob
//                     (no file, no read engine): check_bench.py bounds
//                     how far the serial restart may fall behind it.
//   * repartition   — M != N ranks restart from an N-rank checkpoint via
//                     restart_region hyperslabs.
//   * sparse_slice  — analysis slices (one plane, a small box) where the
//                     v2 block index pays: only intersecting blocks
//                     decode, against a full-field reference datapoint.
//
// Standalone on purpose (no google-benchmark): CI runs
// `bench_read --json --smoke` so the read path can never silently stop
// compiling.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <stdexcept>
#include <vector>

#include "pcw/kernels.h"
#include "pcw/pcw.h"
#include "pcw/text.h"
#include "pcw/workloads.h"

namespace {

using namespace pcw;

struct Options {
  Dims dims = Dims::make_3d(128, 128, 128);
  int fields = 4;
  int write_ranks = 4;
  int reps = 3;
  std::vector<unsigned> threads{1, 2, 4};
  bool smoke = false;
  bool json = false;
  std::string json_path = "BENCH_read.json";
};

struct BenchResult {
  std::string scenario;
  std::string label;
  int ranks = 0;
  unsigned threads = 0;
  bool pipeline = true;
  double seconds = 0.0;
  double mb_per_s = 0.0;
  std::uint64_t bytes_read = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t blocks_total = 0;
};

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: bench_read [--json [PATH]] [--smoke] [--dims X,Y,Z]\n"
               "                  [--fields N] [--write-ranks N] [--reps N]\n"
               "                  [--threads LIST]\n"
               "  --json [PATH]   write pcw.bench_read.v1 JSON (default %s)\n"
               "  --smoke         small field, 1 rep (CI compile+run gate)\n"
               "  --threads LIST  comma-separated decode thread counts\n",
               "BENCH_read.json");
  std::exit(code);
}

std::size_t parse_count(const std::string& s) {
  try {
    std::size_t used = 0;
    const auto v = std::stoull(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return static_cast<std::size_t>(v);
  } catch (const std::exception&) {
    std::fprintf(stderr, "error: '%s' is not a number\n", s.c_str());
    usage(2);
  }
}

std::vector<std::size_t> parse_list(const std::string& s) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(parse_count(s.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--json") {
      opt.json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') opt.json_path = argv[++i];
    } else if (arg == "--dims") {
      const auto v = parse_list(next_value("--dims"));
      if (v.size() != 3 || v[0] == 0 || v[1] == 0 || v[2] == 0) {
        std::fprintf(stderr, "error: --dims expects X,Y,Z > 0\n");
        usage(2);
      }
      opt.dims = Dims::make_3d(v[0], v[1], v[2]);
    } else if (arg == "--fields") {
      opt.fields = static_cast<int>(parse_count(next_value("--fields")));
    } else if (arg == "--write-ranks") {
      opt.write_ranks = static_cast<int>(parse_count(next_value("--write-ranks")));
    } else if (arg == "--reps") {
      opt.reps = static_cast<int>(parse_count(next_value("--reps")));
    } else if (arg == "--threads") {
      opt.threads.clear();
      for (const auto t : parse_list(next_value("--threads"))) {
        opt.threads.push_back(static_cast<unsigned>(t));
      }
      if (opt.threads.empty()) usage(2);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      usage(2);
    }
  }
  if (opt.smoke) {
    // Each of the 2 writers owns 32x64x32 = 65536 elements -> two sz
    // blocks per partition, so the sparse-slice rows keep a strict
    // blocks_decoded < blocks_total for CI to assert on.
    opt.dims = Dims::make_3d(64, 64, 32);
    opt.fields = 2;
    opt.write_ranks = 2;
    opt.reps = 1;
    opt.threads = {1, 2};
  }
  if (opt.fields < 1 || opt.fields > data::kNyxAllFields || opt.write_ranks < 1 ||
      opt.dims.d0 % static_cast<std::size_t>(opt.write_ranks) != 0) {
    std::fprintf(stderr, "error: need 1..%d fields and write-ranks dividing dims[0]\n",
                 data::kNyxAllFields);
    usage(2);
  }
  return opt;
}

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

void emit_json(const Options& opt, const std::vector<BenchResult>& results,
               std::uint64_t raw_bytes, std::uint64_t file_bytes) {
  std::ofstream out(opt.json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.json_path.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"pcw.bench_read.v1\",\n";
  out << "  \"case\": {\n";
  out << "    \"dims\": [" << opt.dims.d0 << ", " << opt.dims.d1 << ", "
      << opt.dims.d2 << "],\n";
  out << "    \"dtype\": \"float32\",\n";
  out << "    \"fields\": " << opt.fields << ",\n";
  out << "    \"write_ranks\": " << opt.write_ranks << ",\n";
  out << "    \"reps\": " << opt.reps << ",\n";
  out << "    \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n";
  out << "    \"host\": {\n";
  out << "      \"cpu_count\": " << util::hardware_threads() << ",\n";
  out << "      \"simd_detected\": \"" << util::simd_name(util::simd_detected())
      << "\",\n";
  out << "      \"simd_active\": \"" << util::simd_name(util::simd_active())
      << "\"\n";
  out << "    }\n";
  out << "  },\n";
  out << "  \"raw_bytes\": " << raw_bytes << ",\n";
  out << "  \"file_bytes\": " << file_bytes << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "    {\"scenario\": \"%s\", \"label\": \"%s\", \"ranks\": %d, "
                  "\"threads\": %u, \"pipeline\": %s, \"seconds\": %.6f, "
                  "\"mb_per_s\": %.1f, \"bytes_read\": %llu, "
                  "\"blocks_decoded\": %llu, \"blocks_total\": %llu}%s\n",
                  r.scenario.c_str(), r.label.c_str(), r.ranks, r.threads,
                  r.pipeline ? "true" : "false", r.seconds, r.mb_per_s,
                  static_cast<unsigned long long>(r.bytes_read),
                  static_cast<unsigned long long>(r.blocks_decoded),
                  static_cast<unsigned long long>(r.blocks_total),
                  i + 1 < results.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", opt.json_path.c_str());
}

[[noreturn]] void die(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pcw_bench_read_" + std::to_string(::getpid()) + ".pcw5"))
          .string();

  std::printf("bench_read: %zux%zux%zu f32, %d field(s), %d write rank(s), reps=%d\n",
              opt.dims.d0, opt.dims.d1, opt.dims.d2, opt.fields, opt.write_ranks,
              opt.reps);

  // ---- checkpoint write (fixture, not timed) ------------------------------
  const Dims local = Dims::make_3d(
      opt.dims.d0 / static_cast<std::size_t>(opt.write_ranks), opt.dims.d1,
      opt.dims.d2);
  std::vector<std::vector<std::vector<float>>> blocks(
      static_cast<std::size_t>(opt.fields));
  for (int f = 0; f < opt.fields; ++f) {
    auto& per_rank = blocks[static_cast<std::size_t>(f)];
    per_rank.resize(static_cast<std::size_t>(opt.write_ranks));
    for (int r = 0; r < opt.write_ranks; ++r) {
      auto& vec = per_rank[static_cast<std::size_t>(r)];
      vec.resize(local.count());
      data::fill_nyx_field(vec, local, {static_cast<std::size_t>(r) * local.d0, 0, 0},
                           opt.dims, static_cast<data::NyxField>(f), 1234);
    }
  }
  {
    Result<Writer> writer =
        Writer::create(path, WriterOptions().with_mode(WriteMode::kOverlapReorder));
    if (!writer.ok()) die(writer.status());
    const Status ran = run(opt.write_ranks, [&](Rank& rank) {
      std::vector<Field> fields(static_cast<std::size_t>(opt.fields));
      for (int f = 0; f < opt.fields; ++f) {
        auto& field = fields[static_cast<std::size_t>(f)];
        const auto info = data::nyx_field_info(static_cast<data::NyxField>(f));
        field.name = info.name;
        field.local = FieldView::of(blocks[static_cast<std::size_t>(f)]
                                          [static_cast<std::size_t>(rank.rank())],
                                    local);
        field.global_dims = opt.dims;
        field.codec = CodecOptions().with_error_bound(info.abs_error_bound);
      }
      const Result<WriteReport> report = writer->write(rank, fields);
      if (!report.ok()) throw std::runtime_error(report.status().to_string());
      const Status closed = writer->close(rank);
      if (!closed.ok()) throw std::runtime_error(closed.to_string());
    });
    if (!ran.ok()) die(ran);
  }
  const Result<Reader> probe = Reader::open(path);
  if (!probe.ok()) die(probe.status());
  const std::uint64_t file_bytes = probe->file_bytes();
  const std::uint64_t raw_bytes =
      static_cast<std::uint64_t>(opt.fields) * opt.dims.count() * sizeof(float);
  std::printf("checkpoint: %.2f MB on disk (raw %.2f MB)\n", file_bytes / 1e6,
              static_cast<double>(raw_bytes) / 1e6);

  std::vector<ReadRequest> all_fields(static_cast<std::size_t>(opt.fields));
  for (int f = 0; f < opt.fields; ++f) {
    all_fields[static_cast<std::size_t>(f)].name =
        data::nyx_field_info(static_cast<data::NyxField>(f)).name;
  }

  std::vector<BenchResult> results;
  auto record = [&](BenchResult r) {
    std::printf("  %-14s %-10s ranks=%d threads=%u pipeline=%d  %8.4f s  %9.1f MB/s"
                "  (%llu/%llu blocks)\n",
                r.scenario.c_str(), r.label.empty() ? "-" : r.label.c_str(), r.ranks,
                r.threads, r.pipeline ? 1 : 0, r.seconds, r.mb_per_s,
                static_cast<unsigned long long>(r.blocks_decoded),
                static_cast<unsigned long long>(r.blocks_total));
    results.push_back(std::move(r));
  };

  /// One timed restart: `ranks` ranks, each reading `region_of(rank)` (or
  /// everything when it returns nullopt) for every field. The Reader is
  /// opened per configuration (untimed); only the reads are measured.
  auto timed_restart = [&](const char* scenario, const char* label, int ranks,
                           unsigned threads, bool pipeline, auto&& region_of,
                           VerifyMode verify = VerifyMode::kBlock) {
    BenchResult res;
    res.scenario = scenario;
    res.label = label;
    res.ranks = ranks;
    res.threads = threads;
    res.pipeline = pipeline;
    const Result<Reader> reader = Reader::open(
        path, ReaderOptions()
                  .with_decompress_threads(threads)
                  .with_pipeline(pipeline)
                  .with_verify(verify));
    if (!reader.ok()) die(reader.status());
    std::vector<ReadReport> reports(static_cast<std::size_t>(ranks));
    res.seconds = best_seconds(opt.reps, [&] {
      reports.assign(static_cast<std::size_t>(ranks), ReadReport{});
      const Status ran = run(ranks, [&](Rank& rank) {
        std::vector<ReadRequest> requests = all_fields;
        for (auto& req : requests) req.region = region_of(rank.rank());
        const auto got = reader->read_fields<float>(
            rank, requests, &reports[static_cast<std::size_t>(rank.rank())]);
        // Thrown failures abort the whole rank group cleanly (exit()
        // from a rank thread would leave siblings blocked in barriers).
        if (!got.ok()) throw std::runtime_error(got.status().to_string());
      });
      if (!ran.ok()) die(ran);
    });
    std::uint64_t delivered = 0;
    for (const auto& rep : reports) {
      res.bytes_read += rep.bytes_read;
      res.blocks_decoded += rep.blocks_decoded;
      res.blocks_total += rep.blocks_total;
      delivered += rep.elements_out * sizeof(float);
    }
    // Rate against bytes *delivered* (a full restart delivers the whole
    // checkpoint to every rank), so scenarios compare like-for-like.
    res.mb_per_s = res.seconds > 0.0
                       ? static_cast<double>(delivered) / res.seconds / 1e6
                       : 0.0;
    record(std::move(res));
  };

  auto whole_field = [](int) { return std::optional<Region>{}; };

  // ---- scenario 1: full restart, thread sweep + serial baseline ----------
  std::printf("full restart (%d ranks, every field whole):\n", opt.write_ranks);
  timed_restart("full_restart", "serial", opt.write_ranks, 1, /*pipeline=*/false,
                whole_field);
  // Verification cost, isolated on the serial path: no checks vs the
  // blob-level CRC pass (one sequential CRC32C over every stored byte).
  timed_restart("full_restart", "serial_noverify", opt.write_ranks, 1,
                /*pipeline=*/false, whole_field, VerifyMode::kOff);
  timed_restart("full_restart", "serial_verify", opt.write_ranks, 1,
                /*pipeline=*/false, whole_field, VerifyMode::kBlob);
  for (const unsigned threads : opt.threads) {
    timed_restart("full_restart", "", opt.write_ranks, threads, /*pipeline=*/true,
                  whole_field);
  }
  // The decode floor under the serial row: the same partition blobs,
  // encoded here with the writer's codec options, decoded from memory by
  // every rank through pcw::decode_blob — no file, no read engine.
  {
    std::vector<std::vector<std::uint8_t>> part_blobs;
    BenchResult res;
    res.scenario = "full_restart";
    res.label = "decode_ref";
    res.ranks = opt.write_ranks;
    res.threads = 1;
    res.pipeline = false;
    for (int f = 0; f < opt.fields; ++f) {
      const auto info = data::nyx_field_info(static_cast<data::NyxField>(f));
      for (const auto& vec : blocks[static_cast<std::size_t>(f)]) {
        Result<std::vector<std::uint8_t>> blob = encode_blob(
            FieldView::of(vec, local), CodecOptions().with_error_bound(info.abs_error_bound));
        if (!blob.ok()) die(blob.status());
        const Result<BlobInfo> binfo = inspect_blob(*blob);
        if (!binfo.ok()) die(binfo.status());
        res.bytes_read += blob->size();
        res.blocks_decoded += binfo->block_count;
        part_blobs.push_back(std::move(*blob));
      }
    }
    res.bytes_read *= static_cast<std::uint64_t>(opt.write_ranks);
    res.blocks_decoded *= static_cast<std::uint64_t>(opt.write_ranks);
    res.blocks_total = res.blocks_decoded;
    res.seconds = best_seconds(opt.reps, [&] {
      const Status ran = run(opt.write_ranks, [&](Rank&) {
        for (const auto& blob : part_blobs) {
          const Result<DecodedBlob> got = decode_blob(blob);
          if (!got.ok()) throw std::runtime_error(got.status().to_string());
        }
      });
      if (!ran.ok()) die(ran);
    });
    res.mb_per_s = static_cast<double>(raw_bytes) * opt.write_ranks / res.seconds / 1e6;
    record(std::move(res));
  }

  // ---- scenario 2: repartitioned restart ----------------------------------
  std::vector<int> read_rank_counts;
  if (opt.write_ranks > 1) read_rank_counts.push_back(opt.write_ranks / 2);
  read_rank_counts.push_back(opt.write_ranks * 2);
  for (const int ranks : read_rank_counts) {
    std::printf("repartitioned restart (%d -> %d ranks):\n", opt.write_ranks, ranks);
    timed_restart("repartition", "", ranks, 1, /*pipeline=*/true, [&](int rank) {
      return std::optional<Region>(restart_region(opt.dims, rank, ranks));
    });
  }

  // ---- scenario 3: sparse analysis slices ---------------------------------
  std::printf("sparse analysis slices (1 rank):\n");
  struct Slice {
    const char* label;
    Region region;
  };
  const std::size_t midx = opt.dims.d0 / 2;
  const std::size_t box = std::min<std::size_t>(
      8, std::min({opt.dims.d0, opt.dims.d1, opt.dims.d2}));
  const Slice slices[] = {
      {"plane", {{midx, 0, 0}, {midx + 1, opt.dims.d1, opt.dims.d2}}},
      {"box8", {{midx, 0, 0}, {midx + box, box, box}}},
      {"full_ref", Region::of(opt.dims)},
  };
  const std::string field0 = all_fields[0].name;
  for (const Slice& s : slices) {
    BenchResult res;
    res.scenario = "sparse_slice";
    res.label = s.label;
    res.ranks = 1;
    res.threads = 1;
    res.pipeline = false;
    ReadReport stats;
    res.seconds = best_seconds(opt.reps, [&] {
      stats = ReadReport{};
      const auto out = probe->read_region<float>(field0, s.region, &stats);
      if (!out.ok()) die(out.status());
      if (out->size() != s.region.count()) {
        std::fprintf(stderr, "error: region element count\n");
        std::exit(1);
      }
    });
    res.bytes_read = stats.bytes_read;
    res.blocks_decoded = stats.blocks_decoded;
    res.blocks_total = stats.blocks_total;
    // Rate against the bytes the slice delivers, not the whole field.
    res.mb_per_s =
        res.seconds > 0.0
            ? static_cast<double>(s.region.count()) * sizeof(float) / res.seconds / 1e6
            : 0.0;
    std::printf("  %-14s %-10s %llu/%llu blocks, %8.4f s, %.2f MB payload\n",
                res.scenario.c_str(), res.label.c_str(),
                static_cast<unsigned long long>(res.blocks_decoded),
                static_cast<unsigned long long>(res.blocks_total), res.seconds,
                static_cast<double>(res.bytes_read) / 1e6);
    results.push_back(std::move(res));
  }

  // The acceptance gate this bench exists for: a multi-threaded pipelined
  // full restart must not lose to the serial baseline.
  double serial = 0.0, best_mt = 1e300;
  for (const BenchResult& r : results) {
    if (r.scenario != "full_restart") continue;
    if (r.label == "serial") serial = r.seconds;
    else if (r.threads > 1) best_mt = std::min(best_mt, r.seconds);
  }
  if (serial > 0.0 && best_mt < 1e300) {
    std::printf("full restart: serial %.4f s vs best multi-threaded %.4f s (%.2fx)\n",
                serial, best_mt, serial / best_mt);
  }

  if (opt.json) emit_json(opt, results, raw_bytes, file_bytes);
  std::filesystem::remove(path);
  return 0;
}

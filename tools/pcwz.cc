// pcwz — command-line front end for the pcw standalone codec surface
// (pcw/codec.h: the sz error-bounded and zfp fixed-rate compressors).
//
//   pcwz compress   <in.f32> <out.pcwz> --dims D0,D1,D2 --eb 1e-3 [--rel]
//                   [--radius N] [--no-lossless]
//   pcwz compress   <in.f32> <out.pzfp> --dims D0,D1,D2 --zfp-rate 8
//   pcwz decompress <in.pcwz|in.pzfp> <out.f32>
//   pcwz inspect    <in.pcwz|in.pzfp>
//   pcwz verify     <in.pcwz|in.pzfp> [--shallow]
//   pcwz read       <file.pcw5> <dataset> <out.raw> [--region L0,L1,L2:H0,H1,H2]
//   pcwz restart    <file.pcw5> <field> <step> <out.raw> [--region ...]
//   pcwz stats      --remote <addr>
//
// `verify` checks a blob's structure and (checksummed containers) its
// CRCs without writing anything, localizing damage to block indices;
// exit 0 = intact, 1 = damaged, 2 = unparseable. Raw files are
// little-endian float32 arrays (numpy `.tofile` format).
//
// `read` and `restart` accept --remote unix:<path>|tcp:<host>:<port> to
// serve the request through a running pcwd instead of opening the file
// locally (the <file> argument then names the path server-side);
// `stats` prints a pcwd server's telemetry rows and is remote-only.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "pcw/codec.h"
#include "pcw/reader.h"
#include "pcw/series.h"
#include "pcw/store.h"
#include "pcw/text.h"

namespace {

using namespace pcw;

constexpr const char* kUsage =
    "usage:\n"
    "  pcwz compress   <in.f32> <out> --dims D0,D1,D2 --eb B [--rel]\n"
    "                  [--radius N] [--no-lossless]\n"
    "  pcwz compress   <in.f32> <out> --dims D0,D1,D2 --zfp-rate R\n"
    "  pcwz decompress <in> <out.f32>\n"
    "  pcwz inspect    <in>\n"
    "  pcwz verify     <in> [--shallow]\n"
    "  pcwz read       <file.pcw5> <dataset> <out.raw> [--region L0,L1,L2:H0,H1,H2]\n"
    "  pcwz restart    <file.pcw5> <field> <step> <out.raw> [--region ...]\n"
    "  pcwz stats      --remote <addr>\n"
    "every command accepts --stats (print the telemetry counters and\n"
    "span totals the run accumulated); read/restart/stats accept\n"
    "--remote unix:<path>|tcp:<host>:<port> to go through a pcwd server\n";

[[noreturn]] int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  std::exit(1);
}

Dims parse_dims(const std::string& spec) {
  Dims dims;
  if (std::sscanf(spec.c_str(), "%zu,%zu,%zu", &dims.d0, &dims.d1, &dims.d2) != 3) {
    cli::usage_exit(kUsage, "--dims expects D0,D1,D2 (use 1 for unused dimensions)");
  }
  return dims;
}

int cmd_compress(int argc, char** argv) {
  if (argc < 4) cli::usage_exit(kUsage, "compress needs <in> <out>");
  const std::string in_path = argv[2], out_path = argv[3];
  std::optional<Dims> dims;
  CodecOptions options;  // defaults to the sz error-bounded codec
  cli::ArgCursor args(argc, argv, 4, kUsage);
  while (args.next()) {
    const std::string arg = args.arg();
    if (arg == "--dims") {
      dims = parse_dims(args.value("--dims"));
    } else if (arg == "--eb") {
      options.with_error_bound(std::stod(args.value("--eb")));
    } else if (arg == "--rel") {
      options.with_relative();
    } else if (arg == "--radius") {
      options.with_radius(static_cast<std::uint32_t>(std::stoul(args.value("--radius"))));
    } else if (arg == "--no-lossless") {
      options.with_lossless(false);
    } else if (arg == "--zfp-rate") {
      options.with_zfp_rate(static_cast<std::uint32_t>(std::stoul(args.value("--zfp-rate"))));
    } else {
      args.unknown();
    }
  }
  if (!dims) cli::usage_exit(kUsage, "--dims is required");

  const auto raw = cli::read_file_or_exit(in_path);
  if (raw.size() != dims->count() * sizeof(float)) {
    std::fprintf(stderr, "error: %s holds %zu bytes but dims need %zu\n",
                 in_path.c_str(), raw.size(), dims->count() * sizeof(float));
    return 1;
  }
  FieldView field;
  field.dtype = DType::kFloat32;
  field.bytes = raw;
  field.dims = *dims;

  util::Timer timer;
  const Result<std::vector<std::uint8_t>> blob = encode_blob(field, options);
  if (!blob.ok()) fail(blob.status());
  const double seconds = timer.seconds();
  cli::write_file_or_exit(out_path, blob->data(), blob->size());
  std::printf("%s: %zu -> %zu bytes (%.2fx, %.2f bits/value) in %.3f s (%.1f MB/s)\n",
              out_path.c_str(), raw.size(), blob->size(),
              static_cast<double>(raw.size()) / static_cast<double>(blob->size()),
              bit_rate(blob->size(), dims->count()), seconds,
              static_cast<double>(raw.size()) / seconds / 1e6);
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  if (argc < 4) cli::usage_exit(kUsage, "decompress needs <in> <out>");
  if (argc > 4) cli::usage_exit(kUsage, "unknown flag " + std::string(argv[4]));
  const auto blob = cli::read_file_or_exit(argv[2]);
  util::Timer timer;
  const Result<DecodedBlob> decoded = decode_blob(blob);
  if (!decoded.ok()) fail(decoded.status());
  const double seconds = timer.seconds();
  cli::write_file_or_exit(argv[3], decoded->bytes.data(), decoded->bytes.size());
  const std::size_t values = decoded->dims.count();
  std::printf("%s: %zu values in %.3f s (%.1f MB/s)\n", argv[3], values, seconds,
              static_cast<double>(decoded->bytes.size()) / seconds / 1e6);
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 3) cli::usage_exit(kUsage, "inspect needs <in>");
  if (argc > 3) cli::usage_exit(kUsage, "unknown flag " + std::string(argv[3]));
  const auto blob = cli::read_file_or_exit(argv[2]);
  const Result<BlobInfo> info_or = inspect_blob(blob);
  if (!info_or.ok()) fail(info_or.status());
  const BlobInfo& info = *info_or;

  if (info.filter_id == kCodecZfp) {
    std::printf("codec: pcw::zfp (fixed rate)\n");
    std::printf("dims: %zu x %zu x %zu (%zu values)\n", info.dims.d0, info.dims.d1,
                info.dims.d2, info.dims.count());
    std::printf("bit-rate: %.2f bits/value\n", bit_rate(blob.size(), info.dims.count()));
    return 0;
  }
  std::printf("codec: pcw::sz (error bounded)\n");
  std::printf("container: v%u, %u block%s\n", info.version, info.block_count,
              info.block_count == 1 ? "" : "s");
  std::printf("predictors: %u lattice, %u stencil, %u temporal%s\n", info.lattice_blocks,
              info.block_count - info.lattice_blocks - info.temporal_blocks,
              info.temporal_blocks,
              info.temporal_blocks > 0 ? " (decoding needs the reference step)" : "");
  std::printf("dtype: %s\n", to_string(info.dtype));
  std::printf("dims: %zu x %zu x %zu (%zu values)\n", info.dims.d0, info.dims.d1,
              info.dims.d2, info.dims.count());
  std::printf("abs error bound: %g\n", info.abs_error_bound);
  std::printf("quantizer radius: %u\n", info.radius);
  std::printf("outliers: %llu (%.3f%%)\n",
              static_cast<unsigned long long>(info.outlier_count),
              100.0 * static_cast<double>(info.outlier_count) /
                  static_cast<double>(info.dims.count()));
  std::printf("sub-1-bit stage: %s\n", sub_bit_stage(info));
  std::printf("bit-rate: %.2f bits/value\n", bit_rate(blob.size(), info.dims.count()));
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 3) cli::usage_exit(kUsage, "verify needs <in>");
  bool deep = true;
  cli::ArgCursor args(argc, argv, 3, kUsage);
  while (args.next()) {
    if (args.arg() == "--shallow") {
      deep = false;
    } else {
      args.unknown();
    }
  }
  const auto blob = cli::read_file_or_exit(argv[2]);
  const BlobVerifyReport report = verify_blob(blob, deep);
  if (!report.parsed) {
    std::printf("%s: UNPARSEABLE (%s)\n", argv[2], report.detail.c_str());
    return 2;
  }
  if (report.version > 0) {
    std::printf("container: v%u (%s)\n", report.version,
                report.checksummed ? "checksummed" : "no checksums");
  }
  if (report.ok) {
    std::printf("%s: OK%s\n", argv[2],
                report.checksummed ? "" : " (structural checks only)");
    return 0;
  }
  std::printf("%s: DAMAGED: %s\n", argv[2], report.detail.c_str());
  if (!report.damaged_blocks.empty()) {
    std::printf("damaged blocks:");
    for (const std::uint32_t b : report.damaged_blocks) std::printf(" %u", b);
    std::printf("\n");
  }
  return 1;
}

Region parse_region(const std::string& spec) {
  Region r;
  if (std::sscanf(spec.c_str(), "%zu,%zu,%zu:%zu,%zu,%zu", &r.lo[0], &r.lo[1],
                  &r.lo[2], &r.hi[0], &r.hi[1], &r.hi[2]) != 6) {
    cli::usage_exit(kUsage, "--region expects L0,L1,L2:H0,H1,H2 (half-open)");
  }
  return r;
}

void write_remote_read(const store::RemoteRead& read, const std::string& out_path,
                       const std::string& what) {
  cli::write_file_or_exit(out_path, read.bytes.data(), read.bytes.size());
  std::printf("%s: %zu values (%s, %zux%zux%zu) from %s\n", out_path.c_str(),
              read.bytes.size() / element_size(read.dtype), to_string(read.dtype),
              read.extents.d0, read.extents.d1, read.extents.d2, what.c_str());
}

store::Client connect_or_fail(const std::string& address) {
  Result<store::Client> client = store::Client::connect(address);
  if (!client.ok()) fail(client.status());
  return std::move(client).value();
}

/// `pcwz read <file.pcw5> <dataset> <out.raw>`: one dataset (whole, or a
/// --region hyperslab), decoded locally or by a pcwd server.
int cmd_read(int argc, char** argv, const std::optional<std::string>& remote) {
  if (argc < 5) cli::usage_exit(kUsage, "read needs <file> <dataset> <out>");
  const std::string path = argv[2], dataset = argv[3], out_path = argv[4];
  std::optional<Region> region;
  cli::ArgCursor args(argc, argv, 5, kUsage);
  while (args.next()) {
    if (args.arg() == "--region") {
      region = parse_region(args.value("--region"));
    } else {
      args.unknown();
    }
  }
  if (remote) {
    store::Client client = connect_or_fail(*remote);
    const Result<store::RemoteFile> file = client.open(path);
    if (!file.ok()) fail(file.status());
    const Result<store::RemoteRead> read = client.read_region(file->id, dataset, region);
    if (!read.ok()) fail(read.status());
    write_remote_read(*read, out_path, *remote);
    return 0;
  }
  const Result<Reader> reader = Reader::open(path);
  if (!reader.ok()) fail(reader.status());
  const Result<DatasetInfo> info = reader->dataset(dataset);
  if (!info.ok()) fail(info.status());
  const Result<std::vector<std::uint8_t>> bytes =
      region ? reader->read_region_bytes(dataset, *region, info->dtype)
             : reader->read_bytes(dataset, info->dtype);
  if (!bytes.ok()) fail(bytes.status());
  cli::write_file_or_exit(out_path, bytes->data(), bytes->size());
  std::printf("%s: %zu values (%s) from %s\n", out_path.c_str(),
              bytes->size() / element_size(info->dtype), to_string(info->dtype),
              path.c_str());
  return 0;
}

/// `pcwz restart <file.pcw5> <field> <step> <out.raw>`: one series step
/// reconstructed through its restart chain, locally or server-side.
int cmd_restart(int argc, char** argv, const std::optional<std::string>& remote) {
  if (argc < 6) cli::usage_exit(kUsage, "restart needs <file> <field> <step> <out>");
  const std::string path = argv[2], field = argv[3], out_path = argv[5];
  const auto step = static_cast<std::uint32_t>(std::stoul(argv[4]));
  std::optional<Region> region;
  cli::ArgCursor args(argc, argv, 6, kUsage);
  while (args.next()) {
    if (args.arg() == "--region") {
      region = parse_region(args.value("--region"));
    } else {
      args.unknown();
    }
  }
  if (remote) {
    store::Client client = connect_or_fail(*remote);
    const Result<store::RemoteFile> file = client.open(path);
    if (!file.ok()) fail(file.status());
    const Result<store::RemoteRead> read =
        client.read_step(file->id, field, step, region);
    if (!read.ok()) fail(read.status());
    write_remote_read(*read, out_path, *remote);
    return 0;
  }
  const Result<Reader> reader = Reader::open(path);
  if (!reader.ok()) fail(reader.status());
  const Result<DatasetInfo> info = reader->series_step(field, step);
  if (!info.ok()) fail(info.status());
  const Result<std::vector<std::uint8_t>> bytes =
      restart_bytes(*reader, field, step, info->dtype, region);
  if (!bytes.ok()) fail(bytes.status());
  cli::write_file_or_exit(out_path, bytes->data(), bytes->size());
  std::printf("%s: %zu values (%s) from %s step %u\n", out_path.c_str(),
              bytes->size() / element_size(info->dtype), to_string(info->dtype),
              path.c_str(), step);
  return 0;
}

/// `pcwz stats --remote <addr>`: a pcwd server's telemetry counters.
int cmd_stats(int argc, char** argv, const std::optional<std::string>& remote) {
  if (argc > 2) cli::usage_exit(kUsage, "unknown flag " + std::string(argv[2]));
  if (!remote) cli::usage_exit(kUsage, "stats needs --remote <addr>");
  store::Client client = connect_or_fail(*remote);
  const Result<std::vector<store::RemoteStat>> stats = client.stats();
  if (!stats.ok()) fail(stats.status());
  std::printf("server telemetry (%s):\n", remote->c_str());
  for (const store::RemoteStat& s : *stats) {
    std::printf("  %-22s %llu\n", s.name.c_str(),
                static_cast<unsigned long long>(s.value));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool stats = cli::strip_stats_flag(argc, argv);
  const std::optional<std::string> remote =
      cli::strip_value_flag(argc, argv, "--remote", kUsage);
  if (argc < 2) cli::usage_exit(kUsage);
  const std::string cmd = argv[1];
  const bool takes_remote = cmd == "read" || cmd == "restart" || cmd == "stats";
  if (remote && !takes_remote) {
    cli::usage_exit(kUsage, "--remote is not supported by " + cmd);
  }
  // The façade returns Status instead of throwing, but flag parsing
  // (std::stod/std::stoul) can still throw on malformed numbers.
  try {
    int rc = -1;
    if (cmd == "compress") rc = cmd_compress(argc, argv);
    else if (cmd == "decompress") rc = cmd_decompress(argc, argv);
    else if (cmd == "inspect") rc = cmd_inspect(argc, argv);
    else if (cmd == "verify") rc = cmd_verify(argc, argv);
    else if (cmd == "read") rc = cmd_read(argc, argv, remote);
    else if (cmd == "restart") rc = cmd_restart(argc, argv, remote);
    else if (cmd == "stats") rc = cmd_stats(argc, argv, remote);
    if (rc >= 0) {
      if (stats) cli::print_stats();
      return rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  cli::usage_exit(kUsage, "unknown command " + cmd);
}

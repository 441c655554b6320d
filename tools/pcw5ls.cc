// pcw5ls — inspect a .pcw5 shared file: dataset table, per-partition
// layout, storage accounting, per-block codec index summaries, and
// optional full decode verification. Built entirely on the pcw:: façade
// (Reader + the blob-level codec surface).
//
//   pcw5ls <file.pcw5> [--partitions] [--blocks] [--steps] [--verify] [--scrub]
//   pcw5ls --remote <addr> [<file.pcw5>]
//
// --scrub audits the file for damage (checksums, extents, restart
// chains) without decoding payloads, prints a per-dataset damage table,
// and exits 0 (clean), 1 (damage, but every damaged dataset is
// salvageable via a degraded read), or 2 (unreadable data, or the file
// itself would not open).
//
// --remote lists through a running pcwd server instead of opening
// locally: with a file argument, the server opens it and returns its
// dataset table; without one, the server's whole catalog is listed. The
// local deep-inspection flags need the file and do not compose with
// --remote.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli_common.h"
#include "pcw/pcw.h"
#include "pcw/store.h"
#include "pcw/text.h"

namespace {

using namespace pcw;

constexpr const char* kUsage =
    "usage: pcw5ls <file.pcw5> [--partitions] [--blocks] [--steps] [--verify] "
    "[--scrub] [--stats]\n"
    "       pcw5ls --remote unix:<path>|tcp:<host>:<port> [<file.pcw5>] [--stats]\n";

std::string filter_name(std::uint32_t filter_id) {
  const Result<CodecInfo> info = find_codec(filter_id);
  return info.ok() ? info->name : "?";
}

/// "run tokens 4/4", "lz 1/4", both comma-joined, or "none".
std::string stage_summary(const std::map<std::string, std::size_t>& stages,
                          std::size_t partitions) {
  std::string out;
  for (const auto& [stage, n] : stages) {
    out += (out.empty() ? "" : ", ") + stage + " " + std::to_string(n) + "/" +
           std::to_string(partitions);
  }
  return out.empty() ? "none" : out;
}

/// "lattice 24, temporal 8": blocks per predictor, zero counts left out.
std::string predictor_summary(std::size_t lattice, std::size_t stencil,
                              std::size_t temporal) {
  std::string out;
  for (const auto& [name, n] : {std::pair{"lattice", lattice}, std::pair{"stencil", stencil},
                                std::pair{"temporal", temporal}}) {
    if (n > 0) out += (out.empty() ? "" : ", ") + std::string(name) + " " + std::to_string(n);
  }
  return out;
}

/// Per-dataset codec container summary: version(s), codec, the blocks per
/// predictor, and the compressed block-size distribution across every
/// partition's block index — what a partial (region) read of this
/// dataset will cost per decoded block.
void print_block_summaries(const Reader& reader) {
  util::Table table({"dataset", "container", "codec", "blocks", "predictors", "min blk",
                     "median blk", "max blk", "sub-1-bit"});
  bool any = false;
  for (const DatasetInfo& info : reader.datasets()) {
    if (info.layout != Layout::kPartitioned || info.filter_id != kCodecSz) continue;
    any = true;
    std::vector<std::uint64_t> block_bytes;
    std::size_t lattice = 0, temporal = 0;
    std::uint32_t vmin = 0, vmax = 0;
    // Partitions per sub-1-bit stage ("run tokens", "lz"; "none" untallied).
    std::map<std::string, std::size_t> stages;
    // The container header + block index live in the blob's first
    // kMaxBlobHeaderBytes, so summarizing costs header-sized reads, not
    // full payloads — the same economy partial reads themselves enjoy.
    for (std::size_t p = 0; p < info.partitions.size(); ++p) {
      const auto head = reader.partition_prefix(info.name, p, kMaxBlobHeaderBytes);
      if (!head.ok()) throw std::runtime_error(head.status().message());
      const Result<BlobInfo> blob = inspect_blob(*head);
      if (!blob.ok()) throw std::runtime_error(blob.status().message());
      vmin = vmin == 0 ? blob->version : std::min(vmin, blob->version);
      vmax = std::max(vmax, blob->version);
      if (blob->run_tokens || blob->lz_applied) ++stages[sub_bit_stage(*blob)];
      const auto blocks = inspect_blob_blocks(*head);
      if (!blocks.ok()) throw std::runtime_error(blocks.status().message());
      for (const BlobBlockInfo& blk : *blocks) {
        block_bytes.push_back(blk.stored_bytes);
        lattice += blk.lattice ? 1 : 0;
        temporal += blk.temporal ? 1 : 0;
      }
    }
    std::sort(block_bytes.begin(), block_bytes.end());
    const std::uint64_t median = block_bytes[block_bytes.size() / 2];
    const std::string container =
        vmin == vmax ? "v" + std::to_string(vmin)
                     : "v" + std::to_string(vmin) + "/v" + std::to_string(vmax);
    table.add_row(
        {info.name, container, "sz", std::to_string(block_bytes.size()),
         predictor_summary(lattice, block_bytes.size() - lattice - temporal, temporal),
         util::Table::fmt_bytes(static_cast<double>(block_bytes.front())),
         util::Table::fmt_bytes(static_cast<double>(median)),
         util::Table::fmt_bytes(static_cast<double>(block_bytes.back())),
         stage_summary(stages, info.partitions.size())});
  }
  if (!any) {
    std::printf("no sz-filtered datasets\n");
    return;
  }
  table.print(std::cout);
}

/// Per-series step table: the restart-cost view. Chain length is how many
/// blobs restart(t) decodes; temporal column counts the per-block
/// predictor outcomes across the step's partitions.
void print_step_tables(const Reader& reader) {
  std::map<std::string, std::vector<DatasetInfo>> series;
  for (const DatasetInfo& info : reader.datasets()) {
    if (info.series_member) series[info.series_base].push_back(info);
  }
  if (series.empty()) {
    std::printf("no time series\n");
    return;
  }
  for (auto& [base, steps] : series) {
    std::sort(steps.begin(), steps.end(),
              [](const auto& a, const auto& b) { return a.series_step < b.series_step; });
    std::printf("\nseries %s (%zu steps):\n", base.c_str(), steps.size());
    util::Table table({"step", "kind", "ref", "chain", "parts", "stored",
                       "temporal blks"});
    // Chain length = blobs a restart actually decodes: walk the real
    // reference links (refs may skip steps), "?" on a broken chain.
    std::map<std::uint32_t, const DatasetInfo*> by_step;
    for (const DatasetInfo& d : steps) by_step[d.series_step] = &d;
    auto chain_of = [&](const DatasetInfo* d) -> std::string {
      std::uint64_t len = 1;
      while (!d->is_keyframe()) {
        const auto it = by_step.find(d->series_ref_step);
        if (it == by_step.end() || it->second->series_step >= d->series_step) return "?";
        d = it->second;
        ++len;
      }
      return std::to_string(len);
    };
    for (const DatasetInfo& d : steps) {
      std::uint64_t stored = 0;
      std::uint64_t blocks = 0, temporal = 0;
      for (std::size_t p = 0; p < d.partitions.size(); ++p) {
        stored += d.partitions[p].actual_bytes;
        const auto head = reader.partition_prefix(d.name, p, kMaxBlobHeaderBytes);
        if (!head.ok()) throw std::runtime_error(head.status().message());
        const auto blks = inspect_blob_blocks(*head);
        if (!blks.ok()) throw std::runtime_error(blks.status().message());
        for (const BlobBlockInfo& blk : *blks) {
          ++blocks;
          temporal += blk.temporal ? 1 : 0;
        }
      }
      table.add_row({std::to_string(d.series_step),
                     d.is_keyframe() ? "keyframe" : "delta",
                     std::to_string(d.series_ref_step), chain_of(&d),
                     std::to_string(d.partitions.size()),
                     util::Table::fmt_bytes(static_cast<double>(stored)),
                     std::to_string(temporal) + "/" + std::to_string(blocks)});
    }
    table.print(std::cout);
  }
}

/// Verifies one series by walking its steps in order with a running
/// reconstruction — O(steps) decodes instead of one full restart chain
/// per step. A step whose reference is not the previously decoded one
/// (gap refs are legal in the format) falls back to a real chain restart.
template <typename T>
void verify_series_chain(const Reader& reader, const std::vector<DatasetInfo>& steps) {
  std::vector<T> prev;
  std::uint32_t prev_step = 0;
  for (const DatasetInfo& d : steps) {
    std::vector<T> out;
    if (!d.is_keyframe() && (prev.empty() || d.series_ref_step != prev_step)) {
      Result<std::vector<T>> chained = restart<T>(reader, d.series_base, d.series_step);
      if (!chained.ok()) throw std::runtime_error(chained.status().message());
      out = std::move(*chained);
    } else {
      out.resize(d.dims.count());
      for (std::size_t p = 0; p < d.partitions.size(); ++p) {
        const PartitionInfo& part = d.partitions[p];
        // Same guards as the library read path: a corrupt footer or a
        // blob whose stored extents disagree with the partition must
        // fail cleanly, not scatter out of bounds.
        if (part.elem_offset + part.elem_count > out.size() ||
            part.elem_offset + part.elem_count < part.elem_offset ||
            (!d.is_keyframe() && part.elem_offset + part.elem_count > prev.size())) {
          throw std::runtime_error("series partition exceeds dataset extent");
        }
        const auto payload = reader.partition_payload(d.name, p);
        if (!payload.ok()) throw std::runtime_error(payload.status().message());
        FieldView ref;
        if (!d.is_keyframe()) {
          ref = FieldView::of(
              std::span<const T>(prev.data() + part.elem_offset, part.elem_count),
              Dims::make_1d(part.elem_count));
        }
        const Result<DecodedBlob> decoded = decode_blob(*payload, ref);
        if (!decoded.ok()) throw std::runtime_error(decoded.status().message());
        const std::vector<T> vals = decoded->as<T>();
        if (vals.size() != part.elem_count) {
          throw std::runtime_error("series partition extents disagree with blob");
        }
        std::memcpy(out.data() + part.elem_offset, vals.data(),
                    vals.size() * sizeof(T));
      }
    }
    std::printf("  %-24s OK (%zu values, via chain)\n", d.name.c_str(), out.size());
    prev = std::move(out);
    prev_step = d.series_step;
  }
}

const char* health_name(ScrubHealth h) {
  switch (h) {
    case ScrubHealth::kClean: return "clean";
    case ScrubHealth::kDamaged: return "DAMAGED";
    case ScrubHealth::kUnreadable: return "UNREADABLE";
  }
  return "?";
}

/// The --scrub exit contract tests/cli_test.sh pins: 0 = clean,
/// 1 = damage but every damaged dataset is recoverable via a degraded
/// read, 2 = data that cannot be delivered at all.
int run_scrub(const Reader& reader) {
  const Result<ScrubReport> scrubbed = reader.scrub();
  if (!scrubbed.ok()) {
    std::fprintf(stderr, "error: %s\n", scrubbed.status().message().c_str());
    return 2;
  }
  const ScrubReport& report = *scrubbed;
  std::printf("\nscrub (%llu clean, %llu damaged, %llu unreadable):\n",
              static_cast<unsigned long long>(report.clean),
              static_cast<unsigned long long>(report.damaged),
              static_cast<unsigned long long>(report.unreadable));
  util::Table table({"dataset", "state", "parts", "damaged", "recovery", "detail"});
  bool unrecoverable = false;
  for (const ScrubDataset& d : report.datasets) {
    const bool bad = d.state != ScrubHealth::kClean;
    if (bad && (d.state == ScrubHealth::kUnreadable || !d.salvageable)) {
      unrecoverable = true;
    }
    table.add_row({d.name, health_name(d.state), std::to_string(d.partitions),
                   bad ? std::to_string(d.damaged_partitions) : "-",
                   !bad ? "-" : (d.salvageable ? "degraded read" : "none"),
                   d.detail.empty() ? "-" : d.detail});
  }
  table.print(std::cout);
  if (report.ok()) return 0;
  return unrecoverable ? 2 : 1;
}

int run(const std::string& path, bool show_partitions, bool show_blocks,
        bool show_steps, bool verify, bool scrub) {
  const Result<Reader> opened = Reader::open(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().message().c_str());
    // In scrub mode an unopenable file is the "unreadable" verdict, not a
    // usage error.
    return scrub ? 2 : 1;
  }
  const Reader& reader = *opened;
  const std::vector<DatasetInfo> datasets = reader.datasets();
  std::printf("%s: %llu bytes, %zu dataset(s)\n\n", path.c_str(),
              static_cast<unsigned long long>(reader.file_bytes()), datasets.size());

  util::Table table({"dataset", "dtype", "dims", "filter", "parts", "stored",
                     "reserved", "ratio", "overflows"});
  for (const DatasetInfo& info : datasets) {
    std::uint64_t reserved = 0;
    int overflows = 0;
    if (info.layout == Layout::kContiguous) {
      reserved = info.stored_bytes;
    } else {
      for (const PartitionInfo& part : info.partitions) {
        reserved += std::max(part.reserved_bytes, part.actual_bytes);
        overflows += part.overflow_bytes > 0;
      }
    }
    const double raw =
        static_cast<double>(info.dims.count() * element_size(info.dtype));
    char dims_str[64];
    std::snprintf(dims_str, sizeof(dims_str), "%zux%zux%zu", info.dims.d0,
                  info.dims.d1, info.dims.d2);
    table.add_row({info.name, to_string(info.dtype), dims_str,
                   filter_name(info.filter_id), std::to_string(info.partitions.size()),
                   util::Table::fmt_bytes(static_cast<double>(info.stored_bytes)),
                   util::Table::fmt_bytes(static_cast<double>(reserved)),
                   util::Table::fmt(raw / static_cast<double>(info.stored_bytes), 1) + "x",
                   std::to_string(overflows)});
  }
  table.print(std::cout);

  if (show_partitions) {
    for (const DatasetInfo& info : datasets) {
      if (info.layout != Layout::kPartitioned) continue;
      std::printf("\n%s partitions:\n", info.name.c_str());
      util::Table pt({"rank", "elems", "offset", "reserved", "actual", "overflow"});
      for (const PartitionInfo& part : info.partitions) {
        pt.add_row({std::to_string(part.rank), std::to_string(part.elem_count),
                    std::to_string(part.file_offset),
                    std::to_string(part.reserved_bytes),
                    std::to_string(part.actual_bytes),
                    part.overflow_bytes > 0
                        ? std::to_string(part.overflow_bytes) + "@" +
                              std::to_string(part.overflow_offset)
                        : "-"});
      }
      pt.print(std::cout);
    }
  }

  if (show_blocks) {
    std::printf("\nsz block index (per-block cost of partial reads):\n");
    print_block_summaries(reader);
  }

  if (show_steps) {
    std::printf("\ntime-series steps (chain = blobs a restart decodes):\n");
    print_step_tables(reader);
  }

  if (verify) {
    std::printf("\nverifying (full decode of every dataset)...\n");
    for (const DatasetInfo& info : datasets) {
      if (info.series_member) continue;  // verified chain-wise below
      if (info.dtype == DType::kBytes) {
        std::printf("  %-24s skipped (raw bytes)\n", info.name.c_str());
        continue;
      }
      const Result<std::vector<std::uint8_t>> v = reader.read_bytes(info.name, info.dtype);
      if (!v.ok()) {
        std::printf("  %-24s FAILED: %s\n", info.name.c_str(),
                    v.status().message().c_str());
        return 1;
      }
      std::printf("  %-24s OK (%zu values)\n", info.name.c_str(),
                  v->size() / element_size(info.dtype));
    }
    // Series: temporal deltas cannot decode standalone, and chaining per
    // step would redo shared prefixes — walk each series once in step
    // order with a running reconstruction instead.
    std::map<std::string, std::vector<DatasetInfo>> series;
    for (const DatasetInfo& info : datasets) {
      if (info.series_member) series[info.series_base].push_back(info);
    }
    for (auto& [base, steps] : series) {
      std::sort(steps.begin(), steps.end(), [](const auto& a, const auto& b) {
        return a.series_step < b.series_step;
      });
      try {
        if (steps.front().dtype == DType::kFloat32) {
          verify_series_chain<float>(reader, steps);
        } else {
          verify_series_chain<double>(reader, steps);
        }
      } catch (const std::exception& e) {
        std::printf("  %-24s FAILED: %s\n", base.c_str(), e.what());
        return 1;
      }
    }
  }

  if (scrub) return run_scrub(reader);
  return 0;
}

/// --remote catalog / dataset listing through a pcwd server.
int run_remote(const std::string& address, const std::optional<std::string>& path) {
  Result<store::Client> connected = store::Client::connect(address);
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n", connected.status().message().c_str());
    return 1;
  }
  store::Client client = std::move(connected).value();
  if (!path) {
    const Result<std::vector<store::RemoteFile>> files = client.catalog();
    if (!files.ok()) {
      std::fprintf(stderr, "error: %s\n", files.status().message().c_str());
      return 1;
    }
    std::printf("%s: %zu open file(s)\n\n", address.c_str(), files->size());
    util::Table table({"id", "path", "mode", "generation", "datasets"});
    for (const store::RemoteFile& f : *files) {
      table.add_row({std::to_string(f.id), f.path, f.writable ? "rw" : "ro",
                     std::to_string(f.generation), std::to_string(f.datasets)});
    }
    table.print(std::cout);
    return 0;
  }
  const Result<store::RemoteFile> file = client.open(*path);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().message().c_str());
    return 1;
  }
  const Result<std::vector<store::RemoteDataset>> listed = client.list(file->id);
  if (!listed.ok()) {
    std::fprintf(stderr, "error: %s\n", listed.status().message().c_str());
    return 1;
  }
  std::printf("%s via %s: %zu dataset(s), generation %llu\n\n", path->c_str(),
              address.c_str(), listed->size(),
              static_cast<unsigned long long>(file->generation));
  util::Table table({"dataset", "dtype", "dims", "filter", "parts", "stored", "series"});
  for (const store::RemoteDataset& d : *listed) {
    char dims_str[64];
    std::snprintf(dims_str, sizeof(dims_str), "%zux%zux%zu", d.dims.d0, d.dims.d1,
                  d.dims.d2);
    table.add_row({d.name, to_string(d.dtype), dims_str, filter_name(d.filter_id),
                   std::to_string(d.partitions),
                   util::Table::fmt_bytes(static_cast<double>(d.stored_bytes)),
                   d.series_member
                       ? d.series_base + "@" + std::to_string(d.series_step)
                       : "-"});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool stats = cli::strip_stats_flag(argc, argv);
  const std::optional<std::string> remote =
      cli::strip_value_flag(argc, argv, "--remote", kUsage);
  if (remote) {
    std::optional<std::string> path;
    cli::ArgCursor args(argc, argv, 1, kUsage);
    while (args.next()) {
      const std::string arg = args.arg();
      if (!arg.empty() && arg[0] == '-') {
        cli::usage_exit(kUsage, arg + " is not supported with --remote");
      }
      if (path) cli::usage_exit(kUsage, "more than one file with --remote");
      path = arg;
    }
    const int rc = run_remote(*remote, path);
    if (stats) cli::print_stats();
    return rc;
  }
  if (argc < 2) cli::usage_exit(kUsage);
  bool show_partitions = false, show_blocks = false, show_steps = false, verify = false;
  bool scrub = false;
  cli::ArgCursor args(argc, argv, 2, kUsage);
  while (args.next()) {
    const std::string arg = args.arg();
    if (arg == "--partitions") {
      show_partitions = true;
    } else if (arg == "--blocks") {
      show_blocks = true;
    } else if (arg == "--steps") {
      show_steps = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--scrub") {
      scrub = true;
    } else {
      args.unknown();
    }
  }
  try {
    const int rc = run(argv[1], show_partitions, show_blocks, show_steps, verify, scrub);
    if (stats) cli::print_stats();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return scrub ? 2 : 1;
  }
}

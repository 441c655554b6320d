// Engineering microbenchmarks: per-stage throughput of the pcw::sz
// pipeline at 1..N threads. The stage rows time the calls compress()
// and decompress() themselves make. `quantize` is lattice_quantize_blocks
// as compress runs it (the lattice kernel plus each block's symbol pass:
// run tokens and the symbol histogram) and `encode` the per-block Huffman
// encode + block CRC, so they add up to the end-to-end `compress` row
// (the codebook build and container assembly are the small remainder).
// `huffman_decode` is the per-block entropy decode and `dequantize` the
// per-block lattice decode, which add up to the `decompress` row less
// its block CRC checks. Not a paper figure;
// this is the measured perf baseline every perf PR must beat, emitted as
// machine-readable JSON with `--json` (schema pcw.bench_kernels.v1 ->
// BENCH_kernels.json).
//
// Standalone on purpose (no google-benchmark): CI runs
// `bench_kernels --json --smoke` so the perf path can never silently
// stop compiling.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "pcw/kernels.h"
#include "pcw/text.h"
#include "pcw/workloads.h"

namespace {

using namespace pcw;

struct Options {
  sz::Dims dims = sz::Dims::make_3d(256, 256, 256);
  double eb = 0.2;
  int reps = 3;
  std::vector<unsigned> threads{1, 2, 4, 8};
  bool smoke = false;
  bool json = false;
  std::string json_path = "BENCH_kernels.json";
};

struct Result {
  std::string stage;
  unsigned threads = 0;
  double seconds = 0.0;
  double mb_per_s = 0.0;
  /// Huffman symbols (plain codes and run tokens) the row codes; set on
  /// `encode` rows only, whose rate check_bench.py compares per symbol.
  std::uint64_t symbols = 0;
};

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: bench_kernels [--json [PATH]] [--smoke] [--dims X,Y,Z]\n"
               "                     [--eb EB] [--reps N] [--threads LIST]\n"
               "  --json [PATH]   write pcw.bench_kernels.v1 JSON (default %s)\n"
               "  --smoke         small field, 1 rep, threads 1,2 (CI compile+run gate)\n"
               "  --threads LIST  comma-separated thread counts (0 = all hardware)\n",
               "BENCH_kernels.json");
  std::exit(code);
}

std::vector<std::size_t> parse_list(const std::string& s) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(static_cast<std::size_t>(std::stoull(s.substr(pos, next - pos))));
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
      opt.dims = sz::Dims::make_3d(v[0], v[1], v[2]);
    } else if (arg == "--eb") {
      opt.eb = std::stod(next_value("--eb"));
    } else if (arg == "--reps") {
      opt.reps = static_cast<int>(std::stoull(next_value("--reps")));
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
    opt.dims = sz::Dims::make_3d(64, 64, 64);
    opt.reps = 1;
    opt.threads = {1, 2};
  }
  return opt;
}

/// Best-of-reps wall time for one timed closure.
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

void emit_json(const Options& opt, const std::vector<Result>& results,
               std::size_t raw_bytes, std::size_t blob_bytes) {
  std::ofstream out(opt.json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.json_path.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"pcw.bench_kernels.v1\",\n";
  out << "  \"case\": {\n";
  out << "    \"dims\": [" << opt.dims.d0 << ", " << opt.dims.d1 << ", "
      << opt.dims.d2 << "],\n";
  out << "    \"dtype\": \"float32\",\n";
  out << "    \"error_bound\": " << opt.eb << ",\n";
  out << "    \"reps\": " << opt.reps << ",\n";
  out << "    \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n";
  // Host facts: throughput numbers are uninterpretable without knowing
  // the core budget and which kernel flavour actually ran (PCW_SIMD can
  // clamp below the detected level).
  out << "    \"host\": {\n";
  out << "      \"cpu_count\": " << util::hardware_threads() << ",\n";
  out << "      \"simd_detected\": \"" << util::simd_name(util::simd_detected())
      << "\",\n";
  out << "      \"simd_active\": \"" << util::simd_name(util::simd_active())
      << "\"\n";
  out << "    }\n";
  out << "  },\n";
  out << "  \"raw_bytes\": " << raw_bytes << ",\n";
  out << "  \"blob_bytes\": " << blob_bytes << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char symbols[64] = "";
    if (r.symbols > 0) {
      std::snprintf(symbols, sizeof symbols, ", \"symbols\": %llu",
                    static_cast<unsigned long long>(r.symbols));
    }
    char line[320];
    std::snprintf(line, sizeof line,
                  "    {\"stage\": \"%s\", \"threads\": %u, \"seconds\": %.6f, "
                  "\"mb_per_s\": %.1f%s}%s\n",
                  r.stage.c_str(), r.threads, r.seconds, r.mb_per_s, symbols,
                  i + 1 < results.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", opt.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Keep the field-sized work buffers on the main heap and stop free()
  // from trimming them back to the kernel. Without this every rep's
  // >32 MiB allocations take the mmap path (glibc caps the dynamic
  // threshold below our buffer sizes), so each pass re-faults and
  // re-zeroes ~64 MiB of pages — timing the kernel's page zeroer, not
  // the codec. Long-lived HPC processes reuse their arenas; this makes
  // the steady state the thing measured.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const Options opt = parse_args(argc, argv);
  const std::size_t raw_bytes = opt.dims.count() * sizeof(float);

  std::printf("bench_kernels: %zux%zux%zu f32, eb=%g, reps=%d\n", opt.dims.d0,
              opt.dims.d1, opt.dims.d2, opt.eb, opt.reps);
  std::printf("host: %u hardware threads, simd %s (detected %s)\n",
              util::hardware_threads(), util::simd_name(util::simd_active()),
              util::simd_name(util::simd_detected()));
  const std::vector<float> field =
      data::make_nyx_field(opt.dims, data::NyxField::kBaryonDensity, 9);

  sz::Params params;
  params.error_bound = opt.eb;

  // Shared fixtures for the stage-level measurements: the symbol-form
  // codes and the shared codebook (plain codes plus run tokens) that
  // compress builds from them, which the encode stage re-times, each
  // block's Huffman substream, which the huffman_decode stage re-times,
  // and the codes it decodes to, which the dequantize stage re-times.
  const std::vector<sz::BlockRange> blocks = sz::split_blocks(opt.dims);
  const std::uint32_t radius = params.radius;
  sz::SymbolCounts symbols(radius, /*runs=*/true);
  const std::vector<sz::QuantizeResult<float>> quants =
      sz::lattice_quantize_blocks<float>(field, blocks, opt.eb, radius, 1, nullptr, &symbols);
  std::vector<sz::SymbolCount> freqs;
  for (std::uint32_t s = 0; s < symbols.hist.size(); ++s) {
    if (symbols.hist[s] > 0) freqs.push_back({s, symbols.hist[s]});
  }
  std::uint64_t coded_symbols = 0;
  for (const std::uint64_t count : symbols.hist) coded_symbols += count;
  const sz::HuffmanEncoder encoder(freqs);
  const std::vector<std::uint8_t> codebook = encoder.serialize_codebook();
  const sz::HuffmanDecoder decoder(codebook, nullptr, radius);
  std::vector<util::UninitVector<std::uint8_t>> substreams(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    util::BitWriter writer;
    encoder.encode_all(quants[b].codes, writer, 2ull * radius);
    substreams[b] = writer.finish();
  }
  std::vector<std::vector<std::uint32_t>> codes(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    codes[b].resize(blocks[b].dims.count());
    util::BitReader reader(substreams[b]);
    decoder.decode_run(reader, codes[b].data(), codes[b].size());
  }
  const std::vector<std::uint8_t> blob = sz::compress<float>(field, opt.dims, params);
  std::vector<float> decoded(field.size());

  std::vector<Result> results;
  auto record = [&](const char* stage, unsigned threads, double seconds,
                    std::uint64_t coded = 0) {
    Result r;
    r.stage = stage;
    r.threads = threads;
    r.seconds = seconds;
    r.mb_per_s = static_cast<double>(raw_bytes) / seconds / 1e6;
    r.symbols = coded;
    results.push_back(r);
    std::printf("  %-10s %2u thread%s  %8.4f s  %9.1f MB/s\n", stage, threads,
                threads == 1 ? " " : "s", seconds, r.mb_per_s);
  };

  for (const unsigned threads : opt.threads) {
    std::printf("threads=%u (%u blocks)\n", threads,
                static_cast<unsigned>(blocks.size()));
    // Stage: lattice quantization of the block decomposition, each block
    // followed by its symbol pass, as compress runs it.
    record("quantize", threads, best_seconds(opt.reps, [&] {
             sz::SymbolCounts counts(radius, /*runs=*/true);
             const auto out = sz::lattice_quantize_blocks<float>(
                 field, blocks, opt.eb, radius, threads, nullptr, &counts);
             if (out.size() != blocks.size()) std::exit(1);
           }));
    // Stage: per-block Huffman encode of the symbol stream and block CRC.
    record("encode", threads, best_seconds(opt.reps, [&] {
             std::vector<util::UninitVector<std::uint8_t>> out(blocks.size());
             std::vector<std::uint32_t> crcs(blocks.size());
             util::parallel_for(blocks.size(), threads, [&](std::size_t b) {
               util::BitWriter writer;
               encoder.encode_all(quants[b].codes, writer, 2ull * radius);
               out[b] = writer.finish();
               const std::uint32_t crc = util::crc32c(0, out[b].data(), out[b].size());
               crcs[b] = util::crc32c(crc, quants[b].outliers.data(),
                                      quants[b].outliers.size() * sizeof(float));
             });
           }), coded_symbols);
    // End-to-end compress and decompress through the public API.
    sz::Params p = params;
    p.threads = threads;
    record("compress", threads, best_seconds(opt.reps, [&] {
             const auto out = sz::compress<float>(field, opt.dims, p);
             if (out.size() != blob.size()) {
               std::fprintf(stderr, "error: blob size varies with threads\n");
               std::exit(1);
             }
           }));
    record("decompress", threads, best_seconds(opt.reps, [&] {
             const auto out = sz::decompress<float>(blob, nullptr, threads);
             if (out.size() != field.size()) {
               std::fprintf(stderr, "error: decompress element count\n");
               std::exit(1);
             }
           }));
    // Decode stages: per-block entropy decode of the substreams, then the
    // per-block lattice decode of the codes, as decompress runs them.
    record("huffman_decode", threads, best_seconds(opt.reps, [&] {
             util::parallel_for(blocks.size(), threads, [&](std::size_t b) {
               thread_local std::vector<std::uint32_t> out;
               out.resize(blocks[b].dims.count());
               util::BitReader reader(substreams[b]);
               decoder.decode_run(reader, out.data(), out.size());
             });
           }));
    record("dequantize", threads, best_seconds(opt.reps, [&] {
             util::parallel_for(blocks.size(), threads, [&](std::size_t b) {
               const sz::BlockRange& blk = blocks[b];
               sz::lattice_dequantize<float>(
                   codes[b], quants[b].outliers, blk.dims, opt.eb, radius,
                   std::span<float>(decoded).subspan(blk.elem_offset, blk.dims.count()));
             });
           }));
    // Same serial compress with tracing armed (buffered, no export):
    // the enabled-telemetry overhead surface check_bench.py gates at
    // 1.10x over the dormant "compress" row.
    if (threads == 1) {
      util::trace::start();
      record("compress_traced", threads, best_seconds(opt.reps, [&] {
               const auto out = sz::compress<float>(field, opt.dims, p);
               if (out.size() != blob.size()) {
                 std::fprintf(stderr, "error: blob size varies under tracing\n");
                 std::exit(1);
               }
             }));
      util::trace::stop();
      util::trace::clear();
    }
  }

  std::printf("blob: %zu bytes (ratio %.2fx)\n", blob.size(),
              sz::compression_ratio<float>(blob.size(), field.size()));
  if (opt.json) emit_json(opt, results, raw_bytes, blob.size());
  return 0;
}

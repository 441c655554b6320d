// Series-engine coverage: write_step/read_series/restart_at_step across
// rank counts, keyframe intervals, regions, and error paths. The load-bearing properties: every step honours the error bound
// (no accumulation along chains), restart_at_step is bit-identical to a
// from-scratch chain of full decodes, and sparse region reads chain-
// decode only the touched blocks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "core/read_planner.h"
#include "core/series.h"
#include "data/workloads.h"
#include "h5/dataset_io.h"
#include "support/read_oracle.h"

namespace pcw::core {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("pcw_series_test_") + tag + "_" +
             std::to_string(::getpid()) + ".pcw5"))
               .string();
  }
  ~TempFile() { std::filesystem::remove(path); }
};

constexpr double kEb = 1e-3;

/// One rank's slab of the global field at step t (slab split along d0,
/// matching restart_region's decomposition for divisible extents).
std::vector<float> rank_slab(const sz::Dims& global, int rank, int nranks, int t) {
  const sz::Dims local = sz::Dims::make_3d(
      global.d0 / static_cast<std::size_t>(nranks), global.d1, global.d2);
  std::vector<float> out(local.count());
  data::fill_nyx_field(out, local,
                       {static_cast<std::size_t>(rank) * local.d0, 0, 0}, global,
                       data::NyxField::kBaryonDensity, 42, 0.05 * t);
  return out;
}

std::vector<float> whole_field(const sz::Dims& global, int t) {
  return data::make_nyx_field(global, data::NyxField::kBaryonDensity, 42, 0.05 * t);
}

double max_abs_err(std::span<const float> a, std::span<const float> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

/// Writes `steps` steps of one field on `nranks` ranks and closes the
/// file. Returns per-step write reports of rank 0.
std::vector<SeriesStepReport> write_series_file(const std::string& path,
                                                const sz::Dims& global, int nranks,
                                                int steps, SeriesConfig cfg) {
  auto file = h5::File::create(path);
  std::vector<SeriesStepReport> reports(static_cast<std::size_t>(steps));
  mpi::Runtime::run(nranks, [&](mpi::Comm& comm) {
    SeriesWriter<float> writer(*file, cfg);
    const sz::Dims local = sz::Dims::make_3d(
        global.d0 / static_cast<std::size_t>(nranks), global.d1, global.d2);
    for (int t = 0; t < steps; ++t) {
      const auto slab = rank_slab(global, comm.rank(), nranks, t);
      FieldSpec<float> spec;
      spec.name = "baryon_density";
      spec.local = slab;
      spec.local_dims = local;
      spec.global_dims = global;
      spec.params.error_bound = kEb;
      const auto report = writer.write_step(comm, std::span(&spec, 1));
      if (comm.rank() == 0) reports[static_cast<std::size_t>(t)] = report;
    }
    file->close_collective(comm);
  });
  return reports;
}

TEST(Series, WriteStepReportsAndBoundAtEveryStep) {
  TempFile tmp("bound");
  const sz::Dims global = sz::Dims::make_3d(32, 32, 32);
  SeriesConfig cfg;
  cfg.keyframe_interval = 4;
  const auto reports = write_series_file(tmp.path, global, 2, 10, cfg);

  EXPECT_TRUE(reports[0].keyframe);
  EXPECT_TRUE(reports[4].keyframe);
  EXPECT_FALSE(reports[5].keyframe);
  for (const auto& r : reports) {
    EXPECT_GT(r.compressed_bytes, 0u);
    if (r.keyframe) {
      EXPECT_EQ(r.temporal_blocks, 0u);
    } else {
      // The Nyx series drifts gently, so delta steps must actually keep
      // temporal blocks (the predictor this subsystem exists for).
      EXPECT_GT(r.temporal_blocks, 0u) << "step " << r.step;
    }
  }

  auto file = h5::File::open(tmp.path);
  ASSERT_EQ(file->datasets().size(), 10u);
  for (std::uint32_t t = 0; t < 10; ++t) {
    const auto* desc = file->find_series("baryon_density", t);
    ASSERT_NE(desc, nullptr) << "step " << t;
    EXPECT_EQ(desc->series_ref_step, t % 4 == 0 ? t : t - 1);
    // Bound holds at every step — no accumulation along the chain.
    const auto got = restart_at_step<float>(*file, "baryon_density", t);
    EXPECT_LE(max_abs_err(whole_field(global, static_cast<int>(t)), got), kEb)
        << "step " << t;
  }
}

TEST(Series, RestartMatchesFromScratchChainBitForBit) {
  TempFile tmp("bitexact");
  const sz::Dims global = sz::Dims::make_3d(32, 32, 32);
  SeriesConfig cfg;
  cfg.keyframe_interval = 4;
  write_series_file(tmp.path, global, 2, 10, cfg);
  auto file = h5::File::open(tmp.path);

  for (const std::uint32_t t : {0u, 3u, 4u, 9u}) {
    const auto want = testsupport::read_series_step<float>(*file, "baryon_density", t);
    SeriesReadReport rep;
    const auto got = restart_at_step<float>(*file, "baryon_density", t, std::nullopt,
                                            {}, &rep);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
        << "step " << t;
    // Chain length: keyframe -> t inclusive.
    EXPECT_EQ(rep.steps_chained, t - (t - t % 4) + 1) << "step " << t;
  }
}

TEST(Series, KeyframeBoundaryRestartDecodesSingleLink) {
  TempFile tmp("boundary");
  const sz::Dims global = sz::Dims::make_3d(32, 32, 32);
  SeriesConfig cfg;
  cfg.keyframe_interval = 3;
  write_series_file(tmp.path, global, 2, 7, cfg);
  auto file = h5::File::open(tmp.path);

  // Restart exactly at a keyframe reads one blob, no chain.
  SeriesReadReport rep;
  const auto got = restart_at_step<float>(*file, "baryon_density", 6, std::nullopt, {},
                                          &rep);
  EXPECT_EQ(rep.steps_chained, 1u);
  EXPECT_EQ(got.size(), global.count());
  // And it equals the plain dataset decode of that step (a keyframe is a
  // self-contained spatial checkpoint).
  const auto direct =
      testsupport::read_dataset<float>(*file, h5::series_dataset_name("baryon_density", 6));
  EXPECT_EQ(0, std::memcmp(got.data(), direct.data(), got.size() * sizeof(float)));
}

TEST(Series, ReadSeriesCollectiveAndRepartitioned) {
  TempFile tmp("repart");
  const sz::Dims global = sz::Dims::make_3d(32, 32, 32);
  SeriesConfig cfg;
  cfg.keyframe_interval = 4;
  write_series_file(tmp.path, global, 4, 6, cfg);
  auto file = h5::File::open(tmp.path);
  const auto want = testsupport::read_series_step<float>(*file, "baryon_density", 5);

  for (const int nranks : {1, 2, 4, 8}) {
    std::vector<std::vector<float>> got(static_cast<std::size_t>(nranks));
    mpi::Runtime::run(nranks, [&](mpi::Comm& comm) {
      ReadSpec spec;
      spec.name = "baryon_density";
      spec.region = restart_region(global, comm.rank(), nranks);
      auto res = read_series<float>(comm, *file, std::span(&spec, 1), 5);
      got[static_cast<std::size_t>(comm.rank())] = std::move(res[0]);
    });
    // Concatenated slabs must equal the full-field reference bit for bit.
    std::vector<float> all;
    for (const auto& part : got) all.insert(all.end(), part.begin(), part.end());
    ASSERT_EQ(all.size(), want.size()) << "nranks=" << nranks;
    EXPECT_EQ(0, std::memcmp(all.data(), want.data(), all.size() * sizeof(float)))
        << "nranks=" << nranks;
  }
}

TEST(Series, SparseRegionReadChainsOnlyTouchedBlocks) {
  TempFile tmp("sparse");
  // 2 ranks split d0=64 -> each partition is 32x64x64, which
  // split_blocks cuts into 4 sz blocks of 8 planes (32768 elems each).
  const sz::Dims global = sz::Dims::make_3d(64, 64, 64);
  SeriesConfig cfg;
  cfg.keyframe_interval = 4;
  write_series_file(tmp.path, global, 2, 6, cfg);
  auto file = h5::File::open(tmp.path);

  // One plane of the last step: lives in one partition, one block.
  const sz::Region plane{{9, 0, 0}, {10, global.d1, global.d2}};
  SeriesReadReport rep;
  const auto got = restart_at_step<float>(*file, "baryon_density", 5, plane, {}, &rep);
  EXPECT_EQ(got.size(), plane.count());
  EXPECT_EQ(rep.steps_chained, 2u);  // keyframe 4 -> step 5
  EXPECT_LT(rep.blocks_decoded, rep.blocks_total);
  // Exactly one block per chain link.
  EXPECT_EQ(rep.blocks_decoded, 2u);

  // Equality against the sliced reference.
  const auto full = testsupport::read_series_step<float>(*file, "baryon_density", 5);
  std::vector<float> want;
  sz::for_each_region_row(plane, global,
                          [&](std::size_t g, std::size_t len, std::size_t) {
                            want.insert(want.end(),
                                        full.begin() + static_cast<std::ptrdiff_t>(g),
                                        full.begin() + static_cast<std::ptrdiff_t>(g + len));
                          });
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)));
}

TEST(Series, KeyframeIntervalOneIsAllSpatial) {
  TempFile tmp("k1");
  const sz::Dims global = sz::Dims::make_3d(16, 16, 16);
  SeriesConfig cfg;
  cfg.keyframe_interval = 1;
  const auto reports = write_series_file(tmp.path, global, 1, 4, cfg);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.keyframe);
    EXPECT_EQ(r.temporal_blocks, 0u);
  }
  auto file = h5::File::open(tmp.path);
  for (std::uint32_t t = 0; t < 4; ++t) {
    SeriesReadReport rep;
    const auto got =
        restart_at_step<float>(*file, "baryon_density", t, std::nullopt, {}, &rep);
    EXPECT_EQ(rep.steps_chained, 1u);
    EXPECT_LE(max_abs_err(whole_field(global, static_cast<int>(t)), got), kEb);
  }
}

TEST(Series, MultiFieldReadOverlap) {
  TempFile tmp("multifield");
  const sz::Dims global = sz::Dims::make_3d(16, 16, 16);
  auto file = h5::File::create(tmp.path);
  SeriesConfig cfg;
  cfg.keyframe_interval = 2;
  mpi::Runtime::run(2, [&](mpi::Comm& comm) {
    SeriesWriter<float> writer(*file, cfg);
    const sz::Dims local = sz::Dims::make_3d(8, 16, 16);
    for (int t = 0; t < 5; ++t) {
      std::vector<FieldSpec<float>> specs(2);
      std::vector<std::vector<float>> bufs(2);
      for (int f = 0; f < 2; ++f) {
        auto& spec = specs[static_cast<std::size_t>(f)];
        auto& buf = bufs[static_cast<std::size_t>(f)];
        buf.resize(local.count());
        data::fill_nyx_field(buf, local,
                             {static_cast<std::size_t>(comm.rank()) * 8, 0, 0}, global,
                             static_cast<data::NyxField>(f), 42, 0.05 * t);
        spec.name = data::nyx_field_info(static_cast<data::NyxField>(f)).name;
        spec.local = buf;
        spec.local_dims = local;
        spec.global_dims = global;
        spec.params.error_bound = kEb;
      }
      writer.write_step(comm, specs);
    }
    file->close_collective(comm);
  });

  auto reopened = h5::File::open(tmp.path);
  std::vector<ReadSpec> specs(2);
  specs[0].name = data::nyx_field_info(data::NyxField::kBaryonDensity).name;
  specs[1].name = data::nyx_field_info(data::NyxField::kDarkMatterDensity).name;
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    SeriesReadReport rep;
    const auto res = read_series<float>(comm, *reopened, specs, 4, {}, &rep);
    ASSERT_EQ(res.size(), 2u);
    for (int f = 0; f < 2; ++f) {
      const auto want = data::make_nyx_field(global, static_cast<data::NyxField>(f),
                                             42, 0.05 * 4);
      EXPECT_LE(max_abs_err(want, res[static_cast<std::size_t>(f)]), kEb);
    }
    EXPECT_EQ(rep.steps_chained, 1u);  // step 4 is a keyframe (K=2)
  });
}

TEST(Series, ErrorPaths) {
  TempFile tmp("errors");
  const sz::Dims global = sz::Dims::make_3d(16, 16, 16);
  SeriesConfig cfg;
  cfg.keyframe_interval = 4;
  write_series_file(tmp.path, global, 1, 3, cfg);
  auto file = h5::File::open(tmp.path);

  EXPECT_THROW(restart_at_step<float>(*file, "no_such_field", 0),
               std::invalid_argument);
  EXPECT_THROW(restart_at_step<float>(*file, "baryon_density", 3),
               std::invalid_argument);
  EXPECT_THROW(restart_at_step<double>(*file, "baryon_density", 1),
               std::runtime_error);
  const sz::Region bad{{0, 0, 0}, {17, 16, 16}};
  EXPECT_THROW(restart_at_step<float>(*file, "baryon_density", 1, bad),
               std::invalid_argument);

  // Writer-side contract: the field set is pinned by the first step.
  TempFile tmp2("errors2");
  auto wfile = h5::File::create(tmp2.path);
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    SeriesWriter<float> writer(*wfile, cfg);
    const auto slab = rank_slab(global, 0, 1, 0);
    FieldSpec<float> spec;
    spec.name = "rho";
    spec.local = slab;
    spec.local_dims = global;
    spec.global_dims = global;
    spec.params.error_bound = kEb;
    writer.write_step(comm, std::span(&spec, 1));
    FieldSpec<float> renamed = spec;
    renamed.name = "other";
    EXPECT_THROW(writer.write_step(comm, std::span(&renamed, 1)),
                 std::invalid_argument);
    EXPECT_THROW(writer.write_step(comm, std::span<const FieldSpec<float>>{}),
                 std::invalid_argument);
  });
}

}  // namespace
}  // namespace pcw::core

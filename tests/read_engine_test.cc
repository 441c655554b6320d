// The parallel restart/read engine end-to-end: write with the predictive
// overlap engine, read back through core::read_fields / h5::read_region,
// and pin that every path — full restart, repartitioned restart, sparse
// slices, v1-era files, contiguous datasets — returns exactly what the
// whole-partition oracle (support/read_oracle.h) does, while decoding
// only what the selection needs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/read_engine.h"
#include "core/read_planner.h"
#include "data/workloads.h"
#include "h5/dataset_io.h"
#include "sz/compressor.h"
#include "support/read_oracle.h"

namespace pcw::core {
namespace {

class ReadEngineTest : public ::testing::Test {
 protected:
  static constexpr int kWriteRanks = 4;
  static constexpr int kFields = 2;

  void SetUp() override {
    // x-slab decomposition: each writer owns 16 planes of 64x64, i.e.
    // 65536 elements -> two sz blocks per partition, so partial decode
    // has something to skip inside every partition.
    global_ = sz::Dims::make_3d(64, 64, 64);
    local_ = sz::Dims::make_3d(global_.d0 / kWriteRanks, global_.d1, global_.d2);
    fields_.resize(kFields);
    for (int f = 0; f < kFields; ++f) {
      auto& per_rank = fields_[static_cast<std::size_t>(f)];
      per_rank.resize(kWriteRanks);
      for (int r = 0; r < kWriteRanks; ++r) {
        auto& vec = per_rank[static_cast<std::size_t>(r)];
        vec.resize(local_.count());
        data::fill_nyx_field(vec, local_,
                             {static_cast<std::size_t>(r) * local_.d0, 0, 0}, global_,
                             static_cast<data::NyxField>(f), 777);
      }
    }
  }

  void TearDown() override { std::remove(path().c_str()); }

  std::string path() const {
    return (std::filesystem::temp_directory_path() /
            (std::string("pcw_read_engine_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".pcw5"))
        .string();
  }

  static const char* field_name(int f) {
    return data::nyx_field_info(static_cast<data::NyxField>(f)).name;
  }

  void write_file(WriteMode mode = WriteMode::kOverlapReorder) {
    auto file = h5::File::create(path());
    EngineConfig cfg;
    cfg.mode = mode;
    mpi::Runtime::run(kWriteRanks, [&](mpi::Comm& comm) {
      std::vector<FieldSpec<float>> specs(kFields);
      for (int f = 0; f < kFields; ++f) {
        auto& spec = specs[static_cast<std::size_t>(f)];
        spec.name = field_name(f);
        spec.local = fields_[static_cast<std::size_t>(f)]
                            [static_cast<std::size_t>(comm.rank())];
        spec.local_dims = local_;
        spec.global_dims = global_;
        spec.params.error_bound =
            data::nyx_field_info(static_cast<data::NyxField>(f)).abs_error_bound;
      }
      write_fields<float>(comm, *file, specs, cfg);
      file->close_collective(comm);
    });
  }

  std::vector<ReadSpec> full_specs() const {
    std::vector<ReadSpec> specs(kFields);
    for (int f = 0; f < kFields; ++f) {
      specs[static_cast<std::size_t>(f)].name = field_name(f);
    }
    return specs;
  }

  sz::Dims global_;
  sz::Dims local_;
  // fields_[field][rank][elem]
  std::vector<std::vector<std::vector<float>>> fields_;
};

TEST_F(ReadEngineTest, FullRestartMatchesReadDataset) {
  write_file();
  auto file = h5::File::open(path());
  std::vector<std::vector<std::vector<float>>> per_rank(kWriteRanks);
  std::vector<ReadReport> reports(kWriteRanks);
  mpi::Runtime::run(kWriteRanks, [&](mpi::Comm& comm) {
    ReadEngineConfig cfg;
    cfg.decompress_threads = 2;
    per_rank[static_cast<std::size_t>(comm.rank())] =
        read_fields<float>(comm, *file, full_specs(), cfg,
                           &reports[static_cast<std::size_t>(comm.rank())]);
  });

  for (int f = 0; f < kFields; ++f) {
    const auto want = testsupport::read_dataset<float>(*file, field_name(f));
    for (int r = 0; r < kWriteRanks; ++r) {
      const auto& got =
          per_rank[static_cast<std::size_t>(r)][static_cast<std::size_t>(f)];
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)));
    }
  }
  // A full read decodes every block of every partition.
  EXPECT_GT(reports[0].blocks_total, 0u);
  EXPECT_EQ(reports[0].blocks_decoded, reports[0].blocks_total);
  EXPECT_EQ(reports[0].elements_out,
            static_cast<std::uint64_t>(kFields) * global_.count());
}

TEST_F(ReadEngineTest, RepartitionedRestartCoversTheField) {
  write_file();
  auto file = h5::File::open(path());
  // Restart on a different rank count than the write (4 -> 3 and 4 -> 8;
  // 3 does not divide 64, exercising the remainder spread, and 8 splits
  // every writer partition in half).
  for (const int read_ranks : {3, 8}) {
    std::vector<std::vector<float>> got(static_cast<std::size_t>(read_ranks));
    mpi::Runtime::run(read_ranks, [&](mpi::Comm& comm) {
      std::vector<ReadSpec> specs(1);
      specs[0].name = field_name(0);
      specs[0].region = restart_region(global_, comm.rank(), read_ranks);
      ReadEngineConfig cfg;
      auto res = read_fields<float>(comm, *file, specs, cfg);
      got[static_cast<std::size_t>(comm.rank())] = std::move(res[0]);
    });

    // The slabs concatenate back to the whole field exactly.
    const auto want = testsupport::read_dataset<float>(*file, field_name(0));
    std::vector<float> merged;
    for (const auto& part : got) merged.insert(merged.end(), part.begin(), part.end());
    ASSERT_EQ(merged.size(), want.size()) << read_ranks << " read ranks";
    EXPECT_EQ(0, std::memcmp(merged.data(), want.data(), want.size() * sizeof(float)));
  }
}

TEST_F(ReadEngineTest, RestartStaysWithinErrorBound) {
  write_file();
  auto file = h5::File::open(path());
  const double eb = data::nyx_field_info(data::NyxField::kBaryonDensity).abs_error_bound;
  std::vector<std::vector<float>> got(kWriteRanks);
  mpi::Runtime::run(kWriteRanks, [&](mpi::Comm& comm) {
    std::vector<ReadSpec> specs(1);
    specs[0].name = field_name(0);
    specs[0].region = restart_region(global_, comm.rank(), kWriteRanks);
    ReadEngineConfig cfg;
    auto res = read_fields<float>(comm, *file, specs, cfg);
    got[static_cast<std::size_t>(comm.rank())] = std::move(res[0]);
  });
  // With an x-slab write and an x-slab restart at the same count, rank r
  // reads back exactly what rank r wrote (within the bound).
  for (int r = 0; r < kWriteRanks; ++r) {
    const auto& orig = fields_[0][static_cast<std::size_t>(r)];
    const auto& back = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(back.size(), orig.size());
    for (std::size_t i = 0; i < orig.size(); ++i) {
      ASSERT_NEAR(back[i], orig[i], eb) << "rank " << r << " elem " << i;
    }
  }
}

TEST_F(ReadEngineTest, RegionReadMatchesSliceAcrossPartitions) {
  write_file();
  auto file = h5::File::open(path());
  const auto full = testsupport::read_dataset<float>(*file, field_name(0));

  const sz::Region regions[] = {
      {{0, 0, 0}, {64, 64, 64}},    // everything
      {{14, 0, 0}, {34, 64, 64}},   // straddles writer partitions 0|1|2
      {{20, 10, 5}, {21, 50, 60}},  // thin plane inside partition 1
      {{63, 63, 63}, {64, 64, 64}}, // last element
      {{8, 8, 8}, {8, 64, 64}},     // empty
  };
  for (const sz::Region& r : regions) {
    h5::RegionReadStats stats;
    const auto got = h5::read_region<float>(*file, field_name(0), r, {}, &stats);
    std::vector<float> want(r.count());
    sz::for_each_region_row(r, global_, [&](std::size_t g, std::size_t len,
                                            std::size_t o) {
      std::memcpy(want.data() + o, full.data() + g, len * sizeof(float));
    });
    ASSERT_EQ(got.size(), want.size());
    if (!want.empty()) {
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)));
    }
    EXPECT_LE(stats.partitions_read, stats.partitions_total);
    EXPECT_LE(stats.blocks_decoded, stats.blocks_total);
  }

  // A one-plane slice inside a single partition touches 1 of 4 partitions
  // and only 1 of its 2 blocks.
  h5::RegionReadStats stats;
  (void)h5::read_region<float>(*file, field_name(0), {{20, 0, 0}, {21, 64, 64}}, {},
                               &stats);
  EXPECT_EQ(stats.partitions_read, 1u);
  EXPECT_EQ(stats.partitions_total, 4u);
  EXPECT_EQ(stats.blocks_total, 2u);
  EXPECT_EQ(stats.blocks_decoded, 1u);
}

TEST_F(ReadEngineTest, ContiguousDatasetsSupportRegionReads) {
  write_file(WriteMode::kNoCompression);
  auto file = h5::File::open(path());
  const auto full = testsupport::read_dataset<float>(*file, field_name(0));
  const sz::Region r{{10, 3, 7}, {30, 60, 50}};
  h5::RegionReadStats stats;
  const auto got = h5::read_region<float>(*file, field_name(0), r, {}, &stats);
  std::vector<float> want(r.count());
  sz::for_each_region_row(r, global_, [&](std::size_t g, std::size_t len,
                                          std::size_t o) {
    std::memcpy(want.data() + o, full.data() + g, len * sizeof(float));
  });
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)));
  // Only the hull of the selection is fetched, not the whole dataset.
  EXPECT_LT(stats.payload_bytes, global_.count() * sizeof(float));

  // read_fields drives the same path.
  std::vector<std::vector<float>> engine_got;
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    std::vector<ReadSpec> specs(1);
    specs[0].name = field_name(0);
    specs[0].region = r;
    ReadEngineConfig cfg;
    engine_got = read_fields<float>(comm, *file, specs, cfg);
  });
  ASSERT_EQ(engine_got[0].size(), want.size());
  EXPECT_EQ(0, std::memcmp(engine_got[0].data(), want.data(),
                           want.size() * sizeof(float)));
}

TEST_F(ReadEngineTest, CorruptBlockInRestartSlabNamesDatasetAndPartition) {
  write_file();
  // Rank 2's restart slab is exactly one writer partition, so it takes
  // the decode-in-place branch; flip one bit in the middle of that
  // partition's block payload.
  const sz::Region slab = restart_region(global_, 2, kWriteRanks);
  std::size_t part_index = 0;
  std::uint64_t flip_at = 0;
  {
    auto file = h5::File::open(path());
    const h5::DatasetDesc* desc = file->find_dataset(field_name(0));
    ASSERT_NE(desc, nullptr);
    const std::uint64_t slab_lo = sz::region_flat_lo(slab, global_);
    while (part_index < desc->partitions.size() &&
           desc->partitions[part_index].elem_offset != slab_lo) {
      ++part_index;
    }
    ASSERT_LT(part_index, desc->partitions.size());
    const h5::PartitionRecord& part = desc->partitions[part_index];
    const std::uint64_t in_slot = std::min(part.actual_bytes, part.reserved_bytes);
    const sz::HeaderInfo info = sz::inspect(file->pread(part.file_offset, in_slot));
    ASSERT_EQ(info.block_count, 2u);
    flip_at = part.file_offset + info.header_size + (in_slot - info.header_size) / 2;
  }
  {
    std::fstream f(path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(flip_at));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(static_cast<std::streamoff>(flip_at));
    f.write(&c, 1);
  }

  auto file = h5::File::open(path());
  const std::string where = std::string("dataset '") + field_name(0) + "' partition " +
                            std::to_string(part_index) + ": ";
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    std::vector<ReadSpec> specs(1);
    specs[0].name = field_name(0);
    specs[0].region = slab;
    try {
      read_fields<float>(comm, *file, specs, ReadEngineConfig{});
      ADD_FAILURE() << "a corrupt block decoded without error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
    }
  });
}

TEST_F(ReadEngineTest, MalformedRequestsThrow) {
  write_file();
  auto file = h5::File::open(path());
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    ReadEngineConfig cfg;
    // Unknown dataset.
    std::vector<ReadSpec> unknown(1);
    unknown[0].name = "no_such_field";
    EXPECT_THROW(read_fields<float>(comm, *file, unknown, cfg), std::invalid_argument);
    // Inverted region.
    std::vector<ReadSpec> inverted(1);
    inverted[0].name = field_name(0);
    inverted[0].region = sz::Region{{5, 0, 0}, {4, 64, 64}};
    EXPECT_THROW(read_fields<float>(comm, *file, inverted, cfg), std::invalid_argument);
    // Out of bounds.
    std::vector<ReadSpec> oob(1);
    oob[0].name = field_name(0);
    oob[0].region = sz::Region{{0, 0, 0}, {64, 64, 65}};
    EXPECT_THROW(read_fields<float>(comm, *file, oob, cfg), std::invalid_argument);
    // Wrong element type.
    EXPECT_THROW(read_fields<double>(comm, *file, full_specs(), cfg),
                 std::runtime_error);
    // No fields at all.
    EXPECT_THROW(read_fields<float>(comm, *file, {}, cfg), std::invalid_argument);
  });
  EXPECT_THROW(h5::read_region<float>(*file, field_name(0),
                                      sz::Region{{0, 0, 0}, {65, 64, 64}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcw::core

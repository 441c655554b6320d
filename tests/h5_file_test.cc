#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "data/workloads.h"
#include "h5/dataset_io.h"
#include "h5/file.h"
#include "h5/filter.h"
#include "mpi/comm.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/trace.h"
#include "support/read_oracle.h"

namespace pcw::h5 {
namespace {

class H5FileTest : public ::testing::Test {
 protected:
  std::string path() const {
    return (std::filesystem::temp_directory_path() /
            (std::string("pcw_h5_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".pcw5"))
        .string();
  }
  void TearDown() override { std::remove(path().c_str()); }
};

TEST_F(H5FileTest, PwritePreadRoundTrip) {
  auto file = File::create(path());
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  const auto off = file->alloc(data.size());
  file->pwrite(off, data);
  EXPECT_EQ(file->pread(off, data.size()), data);
}

TEST_F(H5FileTest, AllocReturnsDisjointRegions) {
  auto file = File::create(path());
  const auto a = file->alloc(100);
  const auto b = file->alloc(200);
  const auto c = file->alloc(1);
  EXPECT_GE(a, kSuperblockSize);
  EXPECT_EQ(b, a + 100);
  EXPECT_EQ(c, b + 200);
}

TEST_F(H5FileTest, AsyncWriteCompletesOnWait) {
  auto file = File::create(path());
  std::vector<std::uint8_t> data(1 << 20, 0xcd);
  const auto off = file->alloc(data.size());
  auto ticket = file->async_write(off, std::vector<std::uint8_t>(data));
  ticket.wait();
  EXPECT_EQ(file->pread(off, data.size()), data);
}

TEST_F(H5FileTest, FlushDrainsManyAsyncWrites) {
  auto file = File::create(path());
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> chunk(1000, static_cast<std::uint8_t>(i));
    const auto off = file->alloc(chunk.size());
    offsets.push_back(off);
    file->async_write(off, std::move(chunk));
  }
  file->flush_async();
  for (int i = 0; i < 64; ++i) {
    const auto got = file->pread(offsets[static_cast<std::size_t>(i)], 1000);
    EXPECT_EQ(got[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(got[999], static_cast<std::uint8_t>(i));
  }
}

TEST_F(H5FileTest, MetadataSurvivesCloseAndReopen) {
  {
    auto file = File::create(path());
    DatasetDesc d;
    d.name = "field";
    d.dtype = DataType::kFloat32;
    d.global_dims = sz::Dims::make_1d(100);
    d.layout = Layout::kContiguous;
    d.file_offset = file->alloc(400);
    d.nbytes = 400;
    std::vector<std::uint8_t> payload(400, 7);
    file->pwrite(d.file_offset, payload);
    file->add_dataset(d);
    file->close_single();
  }
  auto file = File::open(path());
  ASSERT_EQ(file->datasets().size(), 1u);
  const auto* d = file->find_dataset("field");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->nbytes, 400u);
  EXPECT_EQ(file->pread(d->file_offset, 4)[0], 7);
}

TEST_F(H5FileTest, OpenRejectsUnclosedFile) {
  {
    auto file = File::create(path());
    file->alloc(10);
    // destroyed without close: superblock still zeroed
  }
  EXPECT_THROW(File::open(path()), std::runtime_error);
}

TEST_F(H5FileTest, OpenRejectsNonPcwFile) {
  {
    FILE* f = std::fopen(path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "definitely not a pcw5 file............";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(File::open(path()), std::runtime_error);
}

TEST_F(H5FileTest, DuplicateDatasetNameRejected) {
  auto file = File::create(path());
  DatasetDesc d;
  d.name = "dup";
  file->add_dataset(d);
  EXPECT_THROW(file->add_dataset(d), std::invalid_argument);
}

TEST_F(H5FileTest, UpdateDatasetReplacesRecord) {
  auto file = File::create(path());
  DatasetDesc d;
  d.name = "x";
  d.nbytes = 1;
  file->add_dataset(d);
  d.nbytes = 99;
  file->update_dataset(d);
  EXPECT_EQ(file->find_dataset("x")->nbytes, 99u);
  d.name = "unknown";
  EXPECT_THROW(file->update_dataset(d), std::invalid_argument);
}

TEST_F(H5FileTest, ReadOnlyFileRejectsWrites) {
  {
    auto file = File::create(path());
    file->close_single();
  }
  auto file = File::open(path());
  EXPECT_THROW(file->alloc(10), std::runtime_error);
  EXPECT_THROW(file->pwrite(0, std::vector<std::uint8_t>{1}), std::runtime_error);
  EXPECT_THROW(file->async_write(0, {1}), std::runtime_error);
}

// ---------------------------------------------------------- writeback ----

TEST(H5Writeback, WholePagesKeepsOnlyPagesInsideTheRange) {
  const auto pages = [](std::uint64_t off, std::uint64_t len, std::uint64_t page) {
    const PageRange r = whole_pages(off, len, page);
    return std::pair{r.lo, r.hi};
  };
  using P = std::pair<std::uint64_t, std::uint64_t>;
  // Aligned at both ends: every page.
  EXPECT_EQ(pages(8192, 3 * 4096, 4096), (P{8192, 20480}));
  // Unaligned at both ends: the shared boundary pages are left out.
  EXPECT_EQ(pages(4000, 3 * 4096, 4096), (P{4096, 12288}));
  EXPECT_EQ(pages(4097, 8190, 4096), (P{8192, 8192}));
  // Unaligned at one end only.
  EXPECT_EQ(pages(4096, 4096 + 10, 4096), (P{4096, 8192}));
  EXPECT_EQ(pages(4095, 4096 + 1, 4096), (P{4096, 8192}));
  // Under one page, even when it starts on a boundary: empty.
  EXPECT_EQ(pages(4096, 4095, 4096), (P{4096, 4096}));
  EXPECT_EQ(pages(100, 200, 4096), (P{4096, 4096}));
  // Exactly one page.
  EXPECT_EQ(pages(0, 4096, 4096), (P{0, 4096}));
  EXPECT_EQ(pages(12288, 4096, 4096), (P{12288, 16384}));
  // Zero length, aligned or not: empty.
  EXPECT_EQ(pages(4096, 0, 4096), (P{4096, 4096}));
  EXPECT_EQ(pages(5000, 0, 4096), (P{8192, 8192}));
  // A 64 KiB page (aarch64/ppc64 kernels).
  constexpr std::uint64_t k64 = 64 * 1024;
  EXPECT_EQ(pages(1, 3 * k64, k64), (P{k64, 3 * k64}));
  EXPECT_EQ(pages(k64 + 1, k64, k64), (P{2 * k64, 2 * k64}));
  EXPECT_EQ(pages(2 * k64, k64, k64), (P{2 * k64, 3 * k64}));
}

TEST(H5Writeback, FailedKickIsIgnored) {
  // A bad descriptor (EBADF) and a pipe (ESPIPE) both refuse the kick.
  EXPECT_NO_THROW(start_writeback(-1, 0, 1 << 20));
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_NO_THROW(start_writeback(fds[1], 4096, 1 << 16));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(H5FileTest, KickedWritesCommitTheProtocolsExactBytes) {
  // Payloads straddling page boundaries, through both data paths, with
  // tracing on so the kick's span is recorded; the committed file must
  // be exactly superblock + payloads + sealed footer, byte for byte.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> payloads;
  std::vector<DatasetDesc> datasets;
  std::uint64_t footer_off = 0;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  util::trace::clear();
  util::trace::start();
  {
    FileOptions opts;
    opts.atomic_create = false;
    auto file = File::create(path(), opts);
    for (int i = 0; i < 6; ++i) {
      std::vector<std::uint8_t> data(3 * page + 1000 * static_cast<std::size_t>(i));
      for (std::size_t j = 0; j < data.size(); ++j) {
        data[j] = static_cast<std::uint8_t>(j * 31 + static_cast<std::size_t>(i));
      }
      const auto off = file->alloc(data.size());
      if (i % 2 == 0) {
        file->pwrite(off, data);
      } else {
        file->async_write(off, std::vector<std::uint8_t>(data));
      }
      DatasetDesc d;
      d.name = "p" + std::to_string(i);
      d.dtype = DataType::kBytes;
      d.global_dims = sz::Dims::make_1d(data.size());
      d.file_offset = off;
      d.nbytes = data.size();
      file->add_dataset(d);
      payloads.emplace_back(off, std::move(data));
    }
    footer_off = file->data_end();
    file->commit();
    datasets = file->datasets();
  }
  util::trace::stop();
  std::uint64_t kicks = 0;
  for (const auto& e : util::trace::events()) {
    if (std::string(e.name) == "writeback" && std::string(e.cat) == "h5") {
      ++kicks;
      EXPECT_GT(e.arg, 0u);
      EXPECT_EQ(e.arg % page, 0u);
    }
  }
  util::trace::clear();
#if defined(__linux__)
  EXPECT_EQ(kicks, payloads.size());  // every payload holds a whole page
#endif

  const std::vector<std::uint8_t> footer = seal_footer(datasets);
  std::vector<std::uint8_t> want(footer_off + footer.size(), 0);
  serialize_slot(SuperblockSlot{}, want.data());
  SuperblockSlot slot;
  slot.seq = 1;
  slot.footer_off = footer_off;
  slot.footer_size = footer.size();
  slot.footer_crc = util::crc32c(0, footer.data(), footer.size());
  serialize_slot(slot, want.data() + kSuperblockSlotSize);
  for (const auto& [off, data] : payloads) {
    std::copy(data.begin(), data.end(), want.begin() + static_cast<std::ptrdiff_t>(off));
  }
  std::copy(footer.begin(), footer.end(),
            want.begin() + static_cast<std::ptrdiff_t>(footer_off));

  std::ifstream in(path(), std::ios::binary);
  const std::vector<std::uint8_t> got{std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()};
  EXPECT_TRUE(got == want) << "file holds " << got.size() << " bytes, protocol "
                           << want.size();
}

// ------------------------------------------------------------ filters ----

TEST(H5Filter, NullFilterPassthrough) {
  NullFilter f;
  const std::vector<std::uint8_t> raw{1, 2, 3, 4};
  const auto enc = f.encode(raw, DataType::kFloat32, sz::Dims::make_1d(1));
  EXPECT_EQ(enc, raw);
  EXPECT_EQ(f.decode(enc, DataType::kFloat32, 1), raw);
  EXPECT_THROW(f.decode(enc, DataType::kFloat32, 2), std::runtime_error);
}

TEST(H5Filter, SzFilterRoundTripF32) {
  sz::Params p;
  p.error_bound = 1e-3;
  SzFilter f(p);
  const sz::Dims dims = sz::Dims::make_3d(16, 16, 16);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
  }
  const std::span<const std::uint8_t> raw{
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size() * 4};
  const auto blob = f.encode(raw, DataType::kFloat32, dims);
  EXPECT_LT(blob.size(), raw.size());
  const auto dec = f.decode(blob, DataType::kFloat32, data.size());
  const auto* rec = reinterpret_cast<const float*>(dec.data());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(rec[i], data[i], 1e-3);
  }
}

TEST(H5Filter, SzFilterRejectsSizeMismatch) {
  sz::Params p;
  SzFilter f(p);
  const std::vector<std::uint8_t> raw(10);
  EXPECT_THROW(f.encode(raw, DataType::kFloat32, sz::Dims::make_1d(100)),
               std::invalid_argument);
}

TEST(H5Filter, SzFilterRejectsByteType) {
  sz::Params p;
  SzFilter f(p);
  const std::vector<std::uint8_t> raw(16);
  EXPECT_THROW(f.encode(raw, DataType::kBytes, sz::Dims::make_1d(16)),
               std::invalid_argument);
}

TEST(H5Filter, FactoryDispatch) {
  EXPECT_EQ(make_filter(FilterId::kNone)->id(), FilterId::kNone);
  EXPECT_EQ(make_filter(FilterId::kSz)->id(), FilterId::kSz);
  EXPECT_THROW(make_filter(static_cast<FilterId>(99)), std::invalid_argument);
}

// ---------------------------------------------------- parallel dataset ----

class H5ParallelTest : public H5FileTest {};

TEST_F(H5ParallelTest, ContiguousWriteReadAcrossRanks) {
  const int P = 8;
  const std::size_t per_rank = 1000;
  auto file = File::create(path());
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    std::vector<float> mine(per_rank);
    for (std::size_t i = 0; i < per_rank; ++i) {
      mine[i] = static_cast<float>(comm.rank()) * 1000.0f + static_cast<float>(i);
    }
    write_contiguous<float>(comm, *file, "ranked", mine,
                            sz::Dims::make_1d(per_rank * P));
    file->close_collective(comm);
  });

  auto rf = File::open(path());
  const auto full = testsupport::read_dataset<float>(*rf, "ranked");
  ASSERT_EQ(full.size(), per_rank * P);
  for (int r = 0; r < P; ++r) {
    for (std::size_t i = 0; i < per_rank; ++i) {
      EXPECT_EQ(full[static_cast<std::size_t>(r) * per_rank + i],
                static_cast<float>(r) * 1000.0f + static_cast<float>(i));
    }
  }
}

TEST_F(H5ParallelTest, FilteredCollectiveWriteReadAcrossRanks) {
  const int P = 4;
  const sz::Dims local = sz::Dims::make_3d(16, 16, 16);
  const sz::Dims global = sz::Dims::make_3d(64, 16, 16);
  auto file = File::create(path());
  std::vector<std::vector<float>> rank_data(P);
  for (int r = 0; r < P; ++r) {
    rank_data[static_cast<std::size_t>(r)] =
        data::make_nyx_field(local, data::NyxField::kBaryonDensity,
                             static_cast<std::uint64_t>(r) + 100);
  }
  sz::Params params;
  params.error_bound = 0.05;
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    SzFilter filter(params);
    const auto stats = write_filtered_collective<float>(
        comm, *file, "density", rank_data[static_cast<std::size_t>(comm.rank())], local,
        global, filter);
    EXPECT_GT(stats.compressed_bytes, 0u);
    EXPECT_LT(stats.compressed_bytes, local.count() * 4);
    file->close_collective(comm);
  });

  auto rf = File::open(path());
  const auto* desc = rf->find_dataset("density");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->filter, FilterId::kSz);
  ASSERT_EQ(desc->partitions.size(), static_cast<std::size_t>(P));
  const auto full = testsupport::read_dataset<float>(*rf, "density");
  for (int r = 0; r < P; ++r) {
    const auto& orig = rank_data[static_cast<std::size_t>(r)];
    const std::size_t off = static_cast<std::size_t>(r) * local.count();
    for (std::size_t i = 0; i < orig.size(); ++i) {
      ASSERT_NEAR(full[off + i], orig[i], 0.05) << "rank " << r << " elem " << i;
    }
  }
}

TEST_F(H5ParallelTest, CollectiveAllocIsConsistent) {
  const int P = 6;
  auto file = File::create(path());
  std::vector<std::uint64_t> bases(P);
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    bases[static_cast<std::size_t>(comm.rank())] = file->alloc_collective(comm, 1000);
  });
  for (int r = 1; r < P; ++r) {
    EXPECT_EQ(bases[static_cast<std::size_t>(r)], bases[0]);
  }
  EXPECT_EQ(file->data_end(), bases[0] + 1000);
}

TEST_F(H5ParallelTest, ContiguousRejectsWrongGlobalCount) {
  auto file = File::create(path());
  EXPECT_THROW(mpi::Runtime::run(2,
                                 [&](mpi::Comm& comm) {
                                   std::vector<float> mine(10);
                                   write_contiguous<float>(comm, *file, "bad", mine,
                                                           sz::Dims::make_1d(999));
                                 }),
               std::invalid_argument);
}

TEST_F(H5ParallelTest, ReadUnknownDatasetThrows) {
  {
    auto file = File::create(path());
    file->close_single();
  }
  auto rf = File::open(path());
  EXPECT_THROW(testsupport::read_dataset<float>(*rf, "nope"), std::invalid_argument);
}

TEST_F(H5ParallelTest, PartitionPayloadWithSyntheticOverflow) {
  // Hand-build a partitioned dataset whose payload is split between the
  // reserved slot and an appended overflow segment; the reader must
  // stitch them back together.
  auto file = File::create(path());
  util::Rng rng(4);
  std::vector<std::uint8_t> payload(10000);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());

  const std::uint64_t reserved = 6000;
  const auto slot_off = file->alloc(reserved);
  const auto tail_off = file->alloc(payload.size() - reserved);
  file->pwrite(slot_off, std::span<const std::uint8_t>(payload).subspan(0, reserved));
  file->pwrite(tail_off, std::span<const std::uint8_t>(payload).subspan(reserved));

  DatasetDesc desc;
  desc.name = "ovf";
  desc.dtype = DataType::kBytes;
  desc.layout = Layout::kPartitioned;
  PartitionRecord part;
  part.rank = 0;
  part.elem_count = payload.size();
  part.file_offset = slot_off;
  part.reserved_bytes = reserved;
  part.actual_bytes = payload.size();
  part.overflow_offset = tail_off;
  part.overflow_bytes = payload.size() - reserved;
  desc.partitions.push_back(part);
  file->add_dataset(desc);
  file->close_single();

  auto rf = File::open(path());
  const auto* d = rf->find_dataset("ovf");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(read_partition_payload(*rf, d->partitions[0]), payload);
}

}  // namespace
}  // namespace pcw::h5

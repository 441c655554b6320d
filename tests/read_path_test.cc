// The one read path: Reader::read, Reader::read_fields and the series
// reads all plan their selection, pread each partition payload on the
// calling thread and decode it in place. These tests pin that path byte
// for byte against the whole-partition oracle (support/read_oracle.h) on
// every kind of dataset the format stores — contiguous raw, sz with an
// overflow tail, zfp, and an out-of-tree registered codec — across decode
// thread counts, and pin that opening a file starts no thread.
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/workloads.h"
#include "gtest/gtest.h"
#include "h5/file.h"
#include "pcw/bridge.h"
#include "pcw/pcw.h"
#include "support/read_oracle.h"
#include "support/toy_codec.h"

namespace {

using namespace pcw;

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& tag)
      : path((std::filesystem::temp_directory_path() /
              ("pcw_read_path_test_" + tag + ".pcw5"))
                 .string()) {}
  ~TempFile() { std::filesystem::remove(path); }
};

// 4 writer ranks, each a 16x32x32 slab of a 64x32x32 field.
constexpr int kWriteRanks = 4;
const Dims kGlobal = Dims::make_3d(64, 32, 32);
const Dims kLocal = Dims::make_3d(16, 32, 32);

/// Rank `rank`'s slab of Nyx `field` at time `t`.
std::vector<float> slab(int rank, data::NyxField field, double t = 0.0) {
  std::vector<float> out(kLocal.count());
  data::fill_nyx_field(out, as_internal(kLocal),
                       {static_cast<std::size_t>(rank) * kLocal.d0, 0, 0},
                       as_internal(kGlobal), field, 2026, t);
  return out;
}

/// Writes one field per (name, codec) through `writer` on kWriteRanks
/// ranks, then closes the file.
void write_fields(Writer& writer, const std::vector<std::string>& names,
                  const std::vector<CodecOptions>& codecs) {
  const Status ran = run(kWriteRanks, [&](Rank& rank) {
    for (std::size_t f = 0; f < names.size(); ++f) {
      const std::vector<float> local = slab(rank.rank(), static_cast<data::NyxField>(f));
      const Field field{names[f], FieldView::of(local, kLocal), kGlobal, codecs[f]};
      const Result<WriteReport> wrote = writer.write(rank, {&field, 1});
      if (!wrote.ok()) throw std::runtime_error(wrote.status().to_string());
    }
    const Status closed = writer.close(rank);
    if (!closed.ok()) throw std::runtime_error(closed.to_string());
  });
  ASSERT_TRUE(ran.ok()) << ran.to_string();
}

void expect_same_bytes(const std::vector<float>& got, const std::vector<float>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float))) << what;
}

/// Runs `read(rank)` on `ranks` ranks, each returning its restart_region
/// slab of every requested field, and joins the slabs per field.
template <typename Read>
std::vector<std::vector<float>> joined_slabs(int ranks, std::size_t nfields, Read&& read) {
  std::vector<std::vector<std::vector<float>>> per_rank(static_cast<std::size_t>(ranks));
  const Status ran = run(ranks, [&](Rank& rank) {
    per_rank[static_cast<std::size_t>(rank.rank())] = read(rank);
  });
  EXPECT_TRUE(ran.ok()) << ran.to_string();
  std::vector<std::vector<float>> joined(nfields);
  for (const auto& fields : per_rank) {
    for (std::size_t f = 0; f < fields.size(); ++f) {
      joined[f].insert(joined[f].end(), fields[f].begin(), fields[f].end());
    }
  }
  return joined;
}

std::vector<ReadRequest> slab_requests(const std::vector<std::string>& names, int rank,
                                       int ranks) {
  std::vector<ReadRequest> requests;
  for (const std::string& name : names) {
    requests.push_back({name, restart_region(kGlobal, rank, ranks)});
  }
  return requests;
}

TEST(ReadPath, EveryReadMatchesTheWholePartitionOracle) {
  ASSERT_TRUE(testsupport::register_toy_codec().ok());
  TempFile raw_file("raw"), coded_file("coded"), series_file("series");
  const std::vector<std::string> raw_names{"raw"};
  const std::vector<std::string> coded_names{"sz", "zfp", "toy"};
  {
    Result<Writer> writer = Writer::create(
        raw_file.path, WriterOptions().with_mode(WriteMode::kNoCompression));
    ASSERT_TRUE(writer.ok());
    write_fields(*writer, raw_names, {CodecOptions()});
  }
  {
    // No extra space: any under-predicted partition spills into a tail.
    Result<Writer> writer =
        Writer::create(coded_file.path, WriterOptions().with_extra_space(1.0));
    ASSERT_TRUE(writer.ok());
    write_fields(*writer, coded_names,
                 {CodecOptions().with_error_bound(1e-3), CodecOptions().with_zfp_rate(16),
                  CodecOptions().with_codec(testsupport::kToyId)});
  }
  const auto file = h5::File::open(coded_file.path);
  bool overflow = false;
  for (const h5::PartitionRecord& part : file->find_dataset("sz")->partitions) {
    overflow = overflow || part.overflow_bytes > 0;
  }
  ASSERT_TRUE(overflow) << "the sz dataset needs an overflow tail";

  for (const auto& [path, names] : {std::pair{raw_file.path, raw_names},
                                    std::pair{coded_file.path, coded_names}}) {
    const auto h5file = h5::File::open(path);
    std::vector<std::vector<float>> want;
    for (const std::string& name : names) {
      want.push_back(testsupport::read_dataset<float>(*h5file, name));
    }
    const Result<Reader> whole = Reader::open(path);
    ASSERT_TRUE(whole.ok());
    for (std::size_t f = 0; f < names.size(); ++f) {
      const Result<std::vector<float>> got = whole->read<float>(names[f]);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      expect_same_bytes(*got, want[f], "Reader::read " + names[f]);
    }
    // 3 read ranks cut the 4 writer partitions mid-slab, so both the
    // in-place and the scratch-and-scatter decodes run.
    for (const unsigned threads : {1u, 2u, 0u}) {
      const Result<Reader> reader =
          Reader::open(path, ReaderOptions().with_decompress_threads(threads));
      ASSERT_TRUE(reader.ok());
      const auto got = joined_slabs(3, names.size(), [&](Rank& rank) {
        const std::vector<ReadRequest> requests = slab_requests(names, rank.rank(), 3);
        auto out = reader->read_fields<float>(rank, requests);
        if (!out.ok()) throw std::runtime_error(out.status().to_string());
        return std::move(*out);
      });
      for (std::size_t f = 0; f < names.size(); ++f) {
        expect_same_bytes(got[f], want[f],
                          "read_fields " + names[f] + " threads=" + std::to_string(threads));
      }
    }
  }

  // Series: every step chained from its keyframe, against the oracle's
  // chain of whole-partition decodes.
  constexpr int kSteps = 5;
  {
    Result<Writer> writer = Writer::create(series_file.path);
    ASSERT_TRUE(writer.ok());
    const Status ran = run(kWriteRanks, [&](Rank& rank) {
      Result<SeriesWriter> series =
          SeriesWriter::create(*writer, SeriesOptions().with_keyframe_interval(3));
      if (!series.ok()) throw std::runtime_error(series.status().to_string());
      for (int t = 0; t < kSteps; ++t) {
        const std::vector<float> local =
            slab(rank.rank(), data::NyxField::kBaryonDensity, 0.05 * t);
        const Field field{"rho", FieldView::of(local, kLocal), kGlobal,
                          CodecOptions().with_error_bound(1e-3)};
        const Result<SeriesStepReport> rep = series->write_step(rank, {&field, 1});
        if (!rep.ok()) throw std::runtime_error(rep.status().to_string());
      }
      const Status closed = writer->close(rank);
      if (!closed.ok()) throw std::runtime_error(closed.to_string());
    });
    ASSERT_TRUE(ran.ok()) << ran.to_string();
  }
  const auto series_h5 = h5::File::open(series_file.path);
  const Result<Reader> reader = Reader::open(series_file.path);
  ASSERT_TRUE(reader.ok());
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    const std::vector<float> want = testsupport::read_series_step<float>(*series_h5, "rho", step);
    for (const unsigned threads : {1u, 4u}) {
      const auto got = joined_slabs(3, 1, [&](Rank& rank) {
        const std::vector<ReadRequest> requests = slab_requests({"rho"}, rank.rank(), 3);
        auto out = read_series<float>(rank, *reader, requests, step,
                                      SeriesReadOptions().with_decompress_threads(threads));
        if (!out.ok()) throw std::runtime_error(out.status().to_string());
        return std::move(*out);
      });
      expect_same_bytes(got[0], want,
                        "read_series step " + std::to_string(step) +
                            " threads=" + std::to_string(threads));
    }
  }
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ReadPath, OpeningAFileStartsNoThread) {
  TempFile tmp("threads");
  {
    Result<Writer> writer = Writer::create(tmp.path);
    ASSERT_TRUE(writer.ok());
    write_fields(*writer, {"rho"}, {CodecOptions().with_error_bound(1e-3)});
  }  // the writer's async queue thread ends with its handle

  const std::size_t before = thread_count();
  const Result<Reader> reader = Reader::open(tmp.path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(thread_count(), before);
  // A 1-thread read fetches and decodes on this thread alone.
  ASSERT_TRUE(reader->read<float>("rho").ok());
  EXPECT_EQ(thread_count(), before);
}

}  // namespace

// Fault-injection harness tests: the util::fault hook layer drives the
// h5 I/O path through crashes, torn writes, transient and permanent
// errno failures, and verifies the crash-consistent commit protocol's
// core promise — after a crash at ANY point, reopening the file yields
// some previously committed state, bit-exact, never a torn hybrid.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "h5/file.h"
#include "h5/format.h"
#include "pcw/pcw.h"
#include "util/fault.h"
#include "util/io_error.h"
#include "util/metrics.h"

namespace pcw {
namespace {

namespace fault = util::fault;

/// Every test path must leave the process un-hooked, or a later test's
/// I/O inherits the plan.
struct FaultGuard {
  ~FaultGuard() { fault::disarm(); }
};

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("pcw_fault_") + tag + "_" + std::to_string(::getpid()) +
             ".pcw5"))
               .string();
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
  ~TempFile() {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
};

constexpr std::uint64_t kPayloadBytes = 64;
constexpr int kCommits = 3;

std::vector<std::uint8_t> commit_payload(int i) {
  return std::vector<std::uint8_t>(kPayloadBytes,
                                   static_cast<std::uint8_t>(0x40 + i));
}

/// The sweep workload: three commits of one raw dataset each, on a
/// plain-path file (atomic_create off keeps the path stable so the
/// reopen below looks at the same inode a crashed run left behind).
/// Returns how many commits returned successfully before the fault.
int run_workload(const std::string& path) {
  int committed = 0;
  h5::FileOptions opts;
  opts.atomic_create = false;
  auto file = h5::File::create(path, opts);
  for (int i = 1; i <= kCommits; ++i) {
    auto payload = commit_payload(i);
    const auto off = file->alloc(payload.size());
    file->pwrite(off, payload);
    h5::DatasetDesc d;
    d.name = "d" + std::to_string(i);
    d.dtype = h5::DataType::kBytes;
    d.global_dims = sz::Dims::make_1d(payload.size());
    d.file_offset = off;
    d.nbytes = payload.size();
    file->add_dataset(d);
    file->commit();
    ++committed;
  }
  // Deliberately no close(): the destructor must not be needed for the
  // committed states to be durable.
  return committed;
}

/// Post-crash invariant: the file opens to exactly the first k datasets
/// for some k in [committed, kCommits], each bit-exact — or, when zero
/// commits completed, open may fail cleanly instead.
void check_consistent(const std::string& path, int committed) {
  std::shared_ptr<h5::File> file;
  try {
    file = h5::File::open(path);
  } catch (const std::runtime_error&) {
    EXPECT_EQ(committed, 0)
        << "file unreadable although " << committed << " commits succeeded";
    return;
  }
  const auto& datasets = file->datasets();
  const int k = static_cast<int>(datasets.size());
  EXPECT_GE(k, committed) << "a successful commit was lost";
  EXPECT_LE(k, kCommits);
  for (int i = 1; i <= k; ++i) {
    const std::string num = std::to_string(i);
    const h5::DatasetDesc* d = file->find_dataset("d" + num);
    ASSERT_NE(d, nullptr) << "d" << i << " missing from a " << k << "-dataset state";
    const auto bytes = file->pread(d->file_offset, d->nbytes);
    EXPECT_EQ(bytes, commit_payload(i)) << "payload of d" << i << " is torn";
  }
}

/// Runs the workload under `make_plan(n)` for every n in [1, limit],
/// checking the post-crash invariant each time.
template <typename MakePlan>
void sweep(const char* tag, std::uint64_t limit, const MakePlan& make_plan) {
  for (std::uint64_t n = 1; n <= limit; ++n) {
    TempFile tmp(tag);
    int committed = 0;
    try {
      fault::arm(make_plan(n));
      committed = run_workload(tmp.path);
    } catch (const util::IoError&) {
      // Expected: the simulated crash/tear surfaced as an I/O failure.
    }
    fault::disarm();
    SCOPED_TRACE(std::string(tag) + " at op " + std::to_string(n));
    check_consistent(tmp.path, committed);
  }
}

TEST(FaultInjection, CrashPointSweepAlwaysReopensConsistent) {
  FaultGuard guard;

  // Dry run with a never-firing plan to size the sweep.
  std::uint64_t writes = 0, syncs = 0;
  {
    TempFile tmp("dry");
    fault::Plan count_only;
    count_only.nth = UINT64_MAX;
    fault::arm(count_only);
    ASSERT_EQ(run_workload(tmp.path), kCommits);
    fault::disarm();
    const fault::Counts counts = fault::counts();
    writes = counts.writes;
    syncs = counts.syncs;
  }
  ASSERT_GE(writes, static_cast<std::uint64_t>(kCommits) * 3);  // payload+footer+slot
  ASSERT_GE(syncs, static_cast<std::uint64_t>(kCommits) * 2);

  // Crash at every pwrite.
  sweep("write_crash", writes, [](std::uint64_t n) {
    fault::Plan p;
    p.op = fault::Op::kWrite;
    p.action = fault::Action::kCrash;
    p.nth = n;
    return p;
  });

  // Crash at every fsync.
  sweep("sync_crash", syncs, [](std::uint64_t n) {
    fault::Plan p;
    p.op = fault::Op::kSync;
    p.action = fault::Action::kCrash;
    p.nth = n;
    return p;
  });

  // Tear every pwrite to 3 bytes then lose power: a torn sector must
  // never be mistaken for a commit.
  sweep("write_tear", writes, [](std::uint64_t n) {
    fault::Plan p;
    p.op = fault::Op::kWrite;
    p.action = fault::Action::kTear;
    p.nth = n;
    p.tear_bytes = 3;
    return p;
  });
}

// The writeback kick after each data write is not an I/O site of its
// own: per checkpoint the fault layer and the metrics count the same two
// payload writes, footer, slot and three fsyncs as before the kick.
TEST(FaultInjection, WritebackKickIsNoFaultSite) {
  FaultGuard guard;
  TempFile tmp("writeback");
  auto& reg = util::metrics::Registry::get();
  const std::uint64_t writes0 = reg.io_writes.get();
  const std::uint64_t syncs0 = reg.io_syncs.get();
  fault::Plan count_only;
  count_only.nth = UINT64_MAX;
  fault::arm(count_only);
  {
    h5::FileOptions opts;
    opts.atomic_create = false;
    auto file = h5::File::create(tmp.path, opts);
    for (int i = 1; i <= kCommits; ++i) {
      // Several whole pages each, at offsets off the page grid.
      std::vector<std::uint8_t> sync_part(5 * 4096 + 123, static_cast<std::uint8_t>(i));
      std::vector<std::uint8_t> async_part(4 * 4096 + 77, static_cast<std::uint8_t>(~i));
      file->pwrite(file->alloc(sync_part.size()), sync_part);
      file->async_write(file->alloc(async_part.size()), std::move(async_part));
      file->commit();
    }
  }
  const fault::Counts counts = fault::counts();
  fault::disarm();
  constexpr std::uint64_t kWritesPerCommit = 4;  // two payloads, footer, slot
  constexpr std::uint64_t kSyncsPerCommit = 3;
  EXPECT_EQ(counts.writes, 1 + kCommits * kWritesPerCommit);  // + placeholder superblock
  EXPECT_EQ(counts.syncs, kCommits * kSyncsPerCommit);
  EXPECT_EQ(reg.io_writes.get() - writes0, counts.writes);
  EXPECT_EQ(reg.io_syncs.get() - syncs0, counts.syncs);
}

TEST(FaultInjection, TransientWriteFailureIsRetried) {
  FaultGuard guard;
  TempFile tmp("transient");
  h5::FileOptions opts;
  opts.atomic_create = false;
  opts.write_retries = 3;
  auto file = h5::File::create(tmp.path, opts);

  // Arm after create so the fault hits the queued payload write.
  fault::Plan p;
  p.op = fault::Op::kWrite;
  p.action = fault::Action::kFail;
  p.nth = 1;
  p.error_number = EIO;
  p.transient = true;
  fault::arm(p);

  std::vector<std::uint8_t> payload(256, 0x5a);
  const auto off = file->alloc(payload.size());
  file->async_write(off, payload);
  EXPECT_NO_THROW(file->flush_async());  // the bounded retry absorbs it
  fault::disarm();

  EXPECT_EQ(file->pread(off, payload.size()), payload);
}

TEST(FaultInjection, PermanentEnospcSurfacesWithoutRetry) {
  FaultGuard guard;
  TempFile tmp("enospc");
  h5::FileOptions opts;
  opts.atomic_create = false;
  auto file = h5::File::create(tmp.path, opts);

  fault::Plan p;
  p.op = fault::Op::kWrite;
  p.action = fault::Action::kFail;
  p.nth = 1;
  p.error_number = ENOSPC;
  p.transient = false;
  fault::arm(p);

  const auto off = file->alloc(128);
  file->async_write(off, std::vector<std::uint8_t>(128, 0x11));
  try {
    file->flush_async();
    FAIL() << "a full device must surface";
  } catch (const util::IoError& e) {
    EXPECT_EQ(e.error_number(), ENOSPC);
    EXPECT_TRUE(e.resource_exhausted());
    EXPECT_FALSE(e.transient());
  }
  fault::disarm();
}

TEST(FaultInjection, CrashLatchBlocksAllLaterIo) {
  FaultGuard guard;
  TempFile tmp("latch");
  h5::FileOptions opts;
  opts.atomic_create = false;
  auto file = h5::File::create(tmp.path, opts);
  const auto off = file->alloc(64);
  file->pwrite(off, std::vector<std::uint8_t>(64, 0x22));

  fault::Plan p;
  p.op = fault::Op::kWrite;
  p.action = fault::Action::kCrash;
  p.nth = 1;
  fault::arm(p);

  EXPECT_THROW(file->pwrite(off, std::vector<std::uint8_t>(64, 0x33)),
               fault::CrashError);
  // The process is "dead": even reads now fail until disarm().
  EXPECT_THROW(file->pread(off, 64), util::IoError);
  fault::disarm();
  EXPECT_EQ(file->pread(off, 64), std::vector<std::uint8_t>(64, 0x22));
}

TEST(FaultInjection, AtomicCreatePublishesOnlyAtFirstCommit) {
  namespace fs = std::filesystem;
  {
    TempFile tmp("atomic_commit");
    auto file = h5::File::create(tmp.path);  // atomic_create default on
    EXPECT_FALSE(fs::exists(tmp.path));
    EXPECT_TRUE(fs::exists(tmp.path + ".tmp"));
    const auto off = file->alloc(32);
    file->pwrite(off, std::vector<std::uint8_t>(32, 0x77));
    h5::DatasetDesc d;
    d.name = "d";
    d.dtype = h5::DataType::kBytes;
    d.global_dims = sz::Dims::make_1d(32);
    d.file_offset = off;
    d.nbytes = 32;
    file->add_dataset(d);
    file->commit();
    EXPECT_TRUE(fs::exists(tmp.path));
    EXPECT_FALSE(fs::exists(tmp.path + ".tmp"));
  }
  {
    // Abandoned before any commit: nothing appears at the final path and
    // the temp file is cleaned up by the destructor.
    TempFile tmp("atomic_abandon");
    { auto file = h5::File::create(tmp.path); }
    EXPECT_FALSE(fs::exists(tmp.path));
    EXPECT_FALSE(fs::exists(tmp.path + ".tmp"));
  }
}

TEST(FaultInjection, FacadeReportsEnospcAsResourceExhausted) {
  FaultGuard guard;
  TempFile tmp("facade_enospc");

  std::vector<float> field(32 * 32, 1.5f);
  StatusCode failure = StatusCode::kOk;
  Result<Writer> writer = Writer::create(tmp.path);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();
  const Status run_status = pcw::run(1, [&](Rank& rank) {
    fault::Plan p;
    p.op = fault::Op::kWrite;
    p.action = fault::Action::kFail;
    p.nth = 1;
    p.error_number = ENOSPC;
    p.transient = false;
    fault::arm(p);

    Field f;
    f.name = "rho";
    f.local = FieldView::of(field, Dims{1, 32, 32});
    f.global_dims = Dims{1, 32, 32};
    const Field fields[] = {f};
    Status status = writer->write(rank, fields).status();
    if (status.ok()) status = writer->close(rank);
    fault::disarm();
    failure = status.code();
  });
  fault::disarm();
  EXPECT_TRUE(run_status.ok()) << run_status.to_string();
  EXPECT_EQ(failure, StatusCode::kResourceExhausted);
}

// The documented rank-body idiom is `throw std::runtime_error(
// status.to_string())` to abort the whole group; run()'s exception
// boundary must round-trip the code (not degrade an ENOSPC to
// kCorruptData) without doubling the "RESOURCE_EXHAUSTED: " prefix.
TEST(FaultInjection, StatusCodeSurvivesRankBodyRethrow) {
  FaultGuard guard;
  TempFile tmp("facade_rethrow");

  std::vector<float> field(32 * 32, 1.5f);
  Result<Writer> writer = Writer::create(tmp.path);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();
  const Status run_status = pcw::run(1, [&](Rank& rank) {
    fault::Plan p;
    p.op = fault::Op::kWrite;
    p.action = fault::Action::kFail;
    p.nth = 1;
    p.error_number = ENOSPC;
    p.transient = false;
    fault::arm(p);

    Field f;
    f.name = "rho";
    f.local = FieldView::of(field, Dims{1, 32, 32});
    f.global_dims = Dims{1, 32, 32};
    const Field fields[] = {f};
    Status status = writer->write(rank, fields).status();
    if (status.ok()) status = writer->close(rank);
    fault::disarm();
    if (!status.ok()) throw std::runtime_error(status.to_string());
  });
  fault::disarm();
  ASSERT_FALSE(run_status.ok());
  EXPECT_EQ(run_status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(run_status.message().find("RESOURCE_EXHAUSTED"), std::string::npos)
      << run_status.message();
}

}  // namespace
}  // namespace pcw

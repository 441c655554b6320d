// h5lite File: the shared-file handle.
//
// One File object is shared by all ranks of a (simulated-MPI) run, like an
// MPI-IO/parallel-HDF5 file handle. Thread-safety contract:
//   * pwrite/pread are safe from any thread (POSIX pwrite is atomic w.r.t.
//     the offset argument),
//   * alloc() is lock-free (atomic cursor),
//   * add_dataset()/metadata access is mutex-protected,
//   * the async queue is a background-thread writer emulating HDF5's
//     asynchronous VOL connector [Tang et al., TPDS'22]: async_write()
//     enqueues and returns immediately; WriteTicket::wait() (or flush())
//     observes durability and any I/O error. Only created files have
//     one; an opened file reads with pread on the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "h5/format.h"
#include "util/thread_pool.h"

namespace pcw::mpi {
class Comm;
}

namespace pcw::h5 {

/// Completion handle for an asynchronous write.
class WriteTicket {
 public:
  WriteTicket() = default;
  explicit WriteTicket(std::shared_future<void> f) : fut_(std::move(f)) {}
  /// Blocks until the write is on disk; rethrows any I/O error.
  void wait() const {
    if (fut_.valid()) fut_.get();
  }
  bool valid() const { return fut_.valid(); }

 private:
  std::shared_future<void> fut_;
};

/// A byte range [lo, hi) of a file; empty when lo == hi.
struct PageRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// The pages of size `page` that lie wholly inside [off, off + len):
/// [round_up(off), round_down(off + len)), empty when there are none.
/// Payloads sit back to back, so a page at either end may be shared with
/// a neighbour's payload that is still being written; a writeback kick
/// leaves those pages to the commit's fsync.
PageRange whole_pages(std::uint64_t off, std::uint64_t len, std::uint64_t page);

/// Starts device writeback (Linux sync_file_range, SYNC_FILE_RANGE_WRITE)
/// of the whole pages of [off, off + len) that a data write just put in
/// the page cache, so the commit's first fsync waits only for the rest.
/// Promises no durability and ignores every error; a no-op off Linux.
void start_writeback(int fd, std::uint64_t off, std::uint64_t len) noexcept;

struct FileOptions {
  /// Background I/O threads for a created file's async write queue. The
  /// paper's async VOL uses one background thread; more can be useful on
  /// real parallel FS. Opened (read-only) files start no thread.
  unsigned async_threads = 1;
  /// Create via a temp file ("<path>.tmp") promoted by an atomic rename
  /// at the first commit, so a crash before any commit leaves nothing at
  /// the final path. Disable to write the final path in place (a reader
  /// of a never-committed file then gets a clean "no committed footer").
  bool atomic_create = true;
  /// Bounded retry budget for *transient* I/O errors (EIO/EAGAIN) in the
  /// async write queue: total attempts = 1 + write_retries, with
  /// escalating backoff. Permanent errors (ENOSPC, crash) never retry.
  unsigned write_retries = 3;
};

class File {
 public:
  /// Creates/truncates a file for writing. The data cursor starts after
  /// the superblock.
  static std::shared_ptr<File> create(const std::string& path, FileOptions opts = {});

  /// Opens an existing file read-only and parses the dataset table. Every
  /// read is a pread on the calling thread: opening starts no thread.
  static std::shared_ptr<File> open(const std::string& path);

  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  // ---- data-region primitives -------------------------------------------

  /// Reserves `bytes` of data region; returns the starting offset.
  std::uint64_t alloc(std::uint64_t bytes);

  /// Collective allocation: every rank passes the same total, every rank
  /// receives the same base offset (rank 0 allocates, then broadcast).
  std::uint64_t alloc_collective(mpi::Comm& comm, std::uint64_t total_bytes);

  /// Synchronous positioned write/read. pwrite and the async_write task
  /// start writeback of what they wrote (start_writeback).
  void pwrite(std::uint64_t offset, std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> pread(std::uint64_t offset, std::uint64_t size) const;

  /// Asynchronous positioned write: the buffer is moved into the queue.
  WriteTicket async_write(std::uint64_t offset, std::vector<std::uint8_t> data);

  /// Waits until every queued async write has completed, then rethrows
  /// the first write error whose WriteTicket nobody waited on. The error
  /// is sticky: a payload that never reached the disk cannot be made
  /// durable by a later commit, so every flush/commit/close after a
  /// failed write keeps failing rather than sealing a footer over the
  /// hole.
  void flush_async();

  // ---- metadata -----------------------------------------------------------

  /// Registers a dataset (call once per dataset, any single rank).
  void add_dataset(DatasetDesc desc);

  /// Updates an already-registered dataset (e.g. to fill in actual sizes
  /// and overflow segments after the write wave).
  void update_dataset(const DatasetDesc& desc);

  const std::vector<DatasetDesc>& datasets() const { return datasets_; }
  const DatasetDesc* find_dataset(const std::string& name) const;

  /// Resolves one step of a time series by its logical field name
  /// (DatasetDesc::series_base); nullptr when absent.
  const DatasetDesc* find_series(const std::string& base, std::uint32_t step) const;

  /// Crash-consistent commit: drain the async queue, fsync the data,
  /// append a sealed footer, fsync, publish it in the alternate
  /// superblock slot, fsync again. The file stays writable; each commit
  /// supersedes the previous one while the previous footer remains intact
  /// on disk as the shadow copy a reader falls back to if the newest
  /// commit is torn. The first commit of an atomic_create file also
  /// promotes the temp file to the final path.
  void commit();

  /// Collective commit: barriers around the queue drain, then rank 0
  /// commits. Call after each step's metadata is registered to bound data
  /// loss to one step.
  void commit_collective(mpi::Comm& comm);

  /// Collective close: barrier, async flush, then rank 0 commits. The
  /// File stays usable read-only.
  void close_collective(mpi::Comm& comm);

  /// Non-collective close for single-writer use. Surfaces any pending
  /// I/O or fsync error — data is not durable until this (or commit())
  /// returns.
  void close_single();

  std::uint64_t data_end() const { return cursor_.load(); }
  const std::string& path() const { return path_; }

  /// Total bytes of file consumed (superblock + data + footer), valid
  /// after close. This is the "storage size" benches report.
  std::uint64_t file_bytes() const { return file_bytes_; }

 private:
  File() = default;
  void commit_locked();
  void promote_temp();

  std::string path_;        // final path (what path() reports)
  std::string write_path_;  // where bytes land: path_ or path_ + ".tmp"
  int fd_ = -1;
  bool writable_ = false;
  FileOptions opts_;
  bool temp_pending_ = false;   // atomic_create file not yet promoted
  std::uint64_t commit_seq_ = 0;
  std::atomic<std::uint64_t> cursor_{kSuperblockSize};
  std::uint64_t file_bytes_ = 0;

  mutable std::mutex meta_mu_;
  std::vector<DatasetDesc> datasets_;
  bool closed_ = false;

  // First async write failure (post-retry); rethrown by flush_async().
  std::mutex err_mu_;
  std::exception_ptr async_error_;

  std::unique_ptr<util::ThreadPool> async_pool_;
};

}  // namespace pcw::h5

// Checkpoint-store service coverage: the decoded-block cache (LRU order,
// byte budget, single-flight coalescing), the wire protocol
// (serialization round-trips, truncation, address grammar), and the
// pcwd server end to end over a real Unix socket — concurrent clients,
// batched write admission, torn-commit poisoning, scrub-while-serving,
// and a mixed-operation hammer. The load-bearing properties: remote
// reads are bit-identical to direct pcw::Reader reads of the same
// committed state, every get_or_fill accounts exactly one of
// {hit, miss, coalesced}, and a hot cached read beats a cold chain
// decode by >= 2x (the reason the cache exists).
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "pcw/pcw.h"
#include "pcw/store.h"
#include "store/cache.h"
#include "store/protocol.h"
#include "util/fault.h"

namespace {

using namespace pcw;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("pcw_store_test_" + name + "_" + std::to_string(::getpid())))
      .string();
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& tag) : path(temp_path(tag + ".pcw5")) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
};

/// Deterministic smooth field drifting gently with t, so sz compresses
/// well and delta steps keep temporal blocks.
std::vector<float> step_field(const Dims& dims, int t) {
  std::vector<float> out(dims.count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(std::sin(0.003 * static_cast<double>(i)) +
                                0.02 * t +
                                0.05 * std::sin(0.01 * static_cast<double>(i) +
                                                0.3 * t));
  }
  return out;
}

constexpr double kEb = 1e-3;

/// Writes `steps` steps of series "rho" on one rank and closes the file.
void write_series_local(const std::string& path, const Dims& dims, int steps,
                        std::uint32_t interval) {
  Result<Writer> writer = Writer::create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();
  const Status ran = run(1, [&](Rank& rank) {
    Result<SeriesWriter> series = SeriesWriter::create(
        *writer, SeriesOptions().with_keyframe_interval(interval));
    if (!series.ok()) throw std::runtime_error(series.status().to_string());
    for (int t = 0; t < steps; ++t) {
      const std::vector<float> data = step_field(dims, t);
      Field field;
      field.name = "rho";
      field.local = FieldView::of(data, dims);
      field.global_dims = dims;
      field.codec = CodecOptions().with_error_bound(kEb);
      const Result<SeriesStepReport> rep = series->write_step(rank, {&field, 1});
      if (!rep.ok()) throw std::runtime_error(rep.status().to_string());
    }
    const Status closed = writer->close(rank);
    if (!closed.ok()) throw std::runtime_error(closed.to_string());
  });
  ASSERT_TRUE(ran.ok()) << ran.to_string();
}

/// One running pcwd on a private Unix socket; stopped on destruction.
struct ServerEnv {
  std::string sock;
  store::Server server;

  explicit ServerEnv(const std::string& tag, store::StoreOptions opts = {}) {
    sock = temp_path(tag + ".sock");
    std::filesystem::remove(sock);
    Result<store::Server> started = store::Server::start("unix:" + sock, opts);
    if (!started.ok()) throw std::runtime_error(started.status().to_string());
    server = std::move(started).value();
  }
  ~ServerEnv() {
    (void)server.stop();
    std::filesystem::remove(sock);
  }

  store::Client connect() const {
    Result<store::Client> c = store::Client::connect(server.address());
    if (!c.ok()) throw std::runtime_error(c.status().to_string());
    return std::move(c).value();
  }
};

double max_abs_err(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

store::CacheKey make_key(std::uint32_t file_id, const std::string& name) {
  store::CacheKey key;
  key.file_id = file_id;
  key.generation = 1;
  key.name = name;
  return key;
}

Result<store::CachedValue> make_value(std::size_t bytes) {
  store::CachedValue v;
  v.dtype = DType::kBytes;
  v.extents = Dims::make_1d(bytes);
  v.bytes.assign(bytes, 0xab);
  return v;
}

// ---- cache unit tests ------------------------------------------------------

TEST(StoreCache, LruEvictionUnderByteBudget) {
  const Telemetry before = metrics_snapshot();
  store::BlockCache cache(3000, 1);  // one shard, room for three 1000-byte entries

  for (int i = 1; i <= 3; ++i) {
    const auto got = cache.get_or_fill(make_key(7, std::to_string(i)),
                                       [] { return make_value(1000); });
    ASSERT_TRUE(got.ok());
  }
  EXPECT_EQ(cache.resident_bytes(), 3000u);

  // Touch "1" so "2" becomes least-recently-used, then overflow: exactly
  // one eviction, and it is "2".
  EXPECT_NE(cache.lookup(make_key(7, "1")), nullptr);
  const auto fourth = cache.get_or_fill(make_key(7, "4"),
                                        [] { return make_value(1000); });
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(cache.resident_bytes(), 3000u);
  EXPECT_EQ(cache.lookup(make_key(7, "2")), nullptr);
  EXPECT_NE(cache.lookup(make_key(7, "1")), nullptr);
  EXPECT_NE(cache.lookup(make_key(7, "3")), nullptr);
  EXPECT_NE(cache.lookup(make_key(7, "4")), nullptr);

  // Hits again without filling; then a repeat get_or_fill is a hit, not a
  // second fill.
  int fills = 0;
  const auto again = cache.get_or_fill(make_key(7, "4"), [&] {
    ++fills;
    return make_value(1000);
  });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(fills, 0);

  // An entry bigger than the whole budget is returned but never resident.
  const auto big = cache.get_or_fill(make_key(7, "big"),
                                     [] { return make_value(5000); });
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value()->bytes.size(), 5000u);
  EXPECT_EQ(cache.lookup(make_key(7, "big")), nullptr);
  EXPECT_EQ(cache.resident_bytes(), 3000u);

  cache.invalidate_file(7);
  EXPECT_EQ(cache.resident_bytes(), 0u);

  const Telemetry after = metrics_snapshot();
  EXPECT_EQ(after.store_cache_evictions - before.store_cache_evictions, 1u);
  // 5 fills ran: "1".."4" plus "big".
  EXPECT_EQ(after.store_cache_misses - before.store_cache_misses, 5u);
  // Cache destructor + invalidate returned every resident byte.
  EXPECT_EQ(after.store_cache_bytes, before.store_cache_bytes);
}

TEST(StoreCache, SingleFlightCoalescesConcurrentFills) {
  const Telemetry before = metrics_snapshot();
  store::BlockCache cache(1 << 20, 1);
  const store::CacheKey key = make_key(9, "slow");

  constexpr int kThreads = 6;
  std::atomic<int> fills{0};
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const store::CachedValue>> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      const auto got = cache.get_or_fill(key, [&] {
        fills.fetch_add(1);
        // Hold the flight open long enough that the other threads join it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return make_value(64);
      });
      if (got.ok()) results[static_cast<std::size_t>(i)] = got.value();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(fills.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->bytes.size(), 64u);
  }
  const Telemetry after = metrics_snapshot();
  EXPECT_EQ(after.store_cache_misses - before.store_cache_misses, 1u);
  EXPECT_EQ((after.store_cache_hits - before.store_cache_hits) +
                (after.store_coalesced - before.store_coalesced),
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(StoreCache, FailedFillIsNotCachedAndRetries) {
  store::BlockCache cache(1 << 20, 1);
  const store::CacheKey key = make_key(3, "flaky");

  const auto failed = cache.get_or_fill(
      key, [] { return Result<store::CachedValue>(
                    Status(StatusCode::kIoError, "decode failed")); });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(cache.lookup(key), nullptr);

  const auto ok = cache.get_or_fill(key, [] { return make_value(16); });
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(cache.lookup(key), nullptr);
}

// ---- protocol unit tests ---------------------------------------------------

TEST(StoreProtocol, WireRoundTrip) {
  store::WireWriter w;
  w.u8(0x5a);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-2.5);
  w.str("rho@t0004");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5};
  w.blob(blob);
  Region region;
  region.lo = {1, 2, 3};
  region.hi = {4, 5, 6};
  w.region(region);
  w.region(std::nullopt);
  const std::vector<std::uint8_t> payload = w.take();

  store::WireReader r{std::span<const std::uint8_t>(payload)};
  EXPECT_EQ(r.u8(), 0x5a);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "rho@t0004");
  EXPECT_EQ(r.blob(), blob);
  const std::optional<Region> got = r.region();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->lo, region.lo);
  EXPECT_EQ(got->hi, region.hi);
  EXPECT_FALSE(r.region().has_value());
  EXPECT_TRUE(r.done());
}

TEST(StoreProtocol, DatasetAndScrubRoundTrip) {
  store::RemoteDataset d;
  d.name = "rho@t0003";
  d.dtype = DType::kFloat64;
  d.dims = Dims::make_3d(4, 8, 16);
  d.filter_id = 2;
  d.stored_bytes = 12345;
  d.partitions = 3;
  d.series_member = true;
  d.series_base = "rho";
  d.series_step = 3;
  d.series_ref_step = 2;

  store::WireWriter w;
  store::put_dataset(w, d);
  const std::vector<std::uint8_t> payload = w.take();
  store::WireReader r{std::span<const std::uint8_t>(payload)};
  const store::RemoteDataset got = store::get_dataset(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(got.name, d.name);
  EXPECT_EQ(got.dtype, d.dtype);
  EXPECT_TRUE(got.dims == d.dims);
  EXPECT_EQ(got.filter_id, d.filter_id);
  EXPECT_EQ(got.stored_bytes, d.stored_bytes);
  EXPECT_EQ(got.partitions, d.partitions);
  EXPECT_EQ(got.series_member, d.series_member);
  EXPECT_EQ(got.series_base, d.series_base);
  EXPECT_EQ(got.series_step, d.series_step);
  EXPECT_EQ(got.series_ref_step, d.series_ref_step);

  ScrubReport report;
  report.clean = 7;
  report.damaged = 1;
  report.unreadable = 2;
  store::WireWriter sw;
  store::put_scrub(sw, report);
  const std::vector<std::uint8_t> spayload = sw.take();
  store::WireReader sr{std::span<const std::uint8_t>(spayload)};
  const ScrubReport sgot = store::get_scrub(sr);
  EXPECT_TRUE(sr.done());
  EXPECT_EQ(sgot.clean, 7u);
  EXPECT_EQ(sgot.damaged, 1u);
  EXPECT_EQ(sgot.unreadable, 2u);
  EXPECT_FALSE(sgot.ok());
}

TEST(StoreProtocol, TruncatedPayloadThrows) {
  store::WireWriter w;
  w.str("a long enough string to truncate");
  std::vector<std::uint8_t> payload = w.take();
  ASSERT_GT(payload.size(), 5u);
  // erase, not resize(size() - 5): GCC12's -Wstringop-overflow can't see
  // the subtraction won't wrap and flags the resize's memset bound.
  payload.erase(payload.end() - 5, payload.end());
  store::WireReader r{std::span<const std::uint8_t>(payload)};
  EXPECT_THROW((void)r.str(), std::runtime_error);
  // Reading past the end of an empty payload throws too.
  store::WireReader empty{std::span<const std::uint8_t>()};
  EXPECT_THROW((void)empty.u32(), std::runtime_error);
}

TEST(StoreProtocol, FrameHeaderAloneCommitsNoPayloadMemory) {
  // A header claiming the largest legal frame, 16 payload bytes, then
  // EOF: read_frame fails as a truncated frame without ever holding the
  // claimed gigabyte.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t len = store::kMaxFrameBytes;
  std::vector<std::uint8_t> wire{static_cast<std::uint8_t>(len),
                                 static_cast<std::uint8_t>(len >> 8),
                                 static_cast<std::uint8_t>(len >> 16),
                                 static_cast<std::uint8_t>(len >> 24), 1};
  wire.resize(wire.size() + 16, 0x5A);
  ASSERT_EQ(::send(fds[1], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ::close(fds[1]);

  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  std::uint8_t tag = 0;
  std::vector<std::uint8_t> payload;
  std::string error;
  try {
    (void)store::read_frame(fds[0], &tag, &payload);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  ::close(fds[0]);
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_NE(error.find("connection closed mid-frame"), std::string::npos) << error;
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);  // KiB: under 64 MB
}

TEST(StoreProtocol, AddressGrammar) {
  const store::Address unix_addr = store::parse_address("unix:/tmp/x.sock");
  EXPECT_FALSE(unix_addr.tcp);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");
  EXPECT_EQ(store::to_spec(unix_addr), "unix:/tmp/x.sock");

  const store::Address tcp_addr = store::parse_address("tcp:localhost:9090");
  EXPECT_TRUE(tcp_addr.tcp);
  EXPECT_EQ(tcp_addr.host, "localhost");
  EXPECT_EQ(tcp_addr.port, 9090);
  EXPECT_EQ(store::to_spec(tcp_addr), "tcp:localhost:9090");

  // A bare spec containing '/' is a Unix path.
  EXPECT_FALSE(store::parse_address("/tmp/bare.sock").tcp);

  EXPECT_THROW(store::parse_address(""), std::invalid_argument);
  EXPECT_THROW(store::parse_address("tcp:nohost"), std::invalid_argument);
  EXPECT_THROW(store::parse_address("tcp:host:notaport"), std::invalid_argument);
  EXPECT_THROW(store::parse_address("carrier-pigeon:coop"), std::invalid_argument);
  // A Unix path longer than sun_path cannot be bound; reject it early.
  EXPECT_THROW(store::parse_address("unix:/" + std::string(200, 'x')),
               std::invalid_argument);
}

// ---- end-to-end server tests -----------------------------------------------

TEST(StoreServer, RemoteReadsAreBitExactAgainstDirectReader) {
  TempFile file("bitexact");
  const Dims dims = Dims::make_3d(16, 24, 32);
  write_series_local(file.path, dims, 6, 4);

  ServerEnv env("bitexact");
  store::Client client = env.connect();

  ASSERT_TRUE(client.ping().ok());
  const Result<store::RemoteFile> opened = client.open(file.path);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_GT(opened->id, 0u);
  EXPECT_FALSE(opened->writable);
  EXPECT_EQ(opened->datasets, 6u);

  // Opening the same path again returns the same handle.
  const Result<store::RemoteFile> reopened = client.open(file.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->id, opened->id);

  const Result<std::vector<store::RemoteFile>> cat = client.catalog();
  ASSERT_TRUE(cat.ok());
  ASSERT_EQ(cat->size(), 1u);
  EXPECT_EQ(cat->front().path, file.path);

  Result<Reader> reader = Reader::open(file.path);
  ASSERT_TRUE(reader.ok());

  // LIST matches the direct Reader's dataset table.
  const Result<std::vector<store::RemoteDataset>> listed = client.list(opened->id);
  ASSERT_TRUE(listed.ok());
  const std::vector<DatasetInfo> local_infos = reader->datasets();
  ASSERT_EQ(listed->size(), local_infos.size());
  for (std::size_t i = 0; i < listed->size(); ++i) {
    EXPECT_EQ((*listed)[i].name, local_infos[i].name);
    EXPECT_TRUE((*listed)[i].dims == local_infos[i].dims);
    EXPECT_EQ((*listed)[i].stored_bytes, local_infos[i].stored_bytes);
    EXPECT_EQ((*listed)[i].series_base, "rho");
  }

  // READ_REGION of a concrete dataset (whole + sparse) is bit-identical
  // to the direct Reader.
  const std::string ds = local_infos[0].name;
  const Result<store::RemoteRead> whole = client.read_region(opened->id, ds);
  ASSERT_TRUE(whole.ok()) << whole.status().to_string();
  EXPECT_EQ(whole->dtype, DType::kFloat32);
  EXPECT_TRUE(whole->extents == dims);
  const Result<std::vector<std::uint8_t>> local_whole =
      reader->read_bytes(ds, DType::kFloat32);
  ASSERT_TRUE(local_whole.ok());
  EXPECT_EQ(whole->bytes, *local_whole);

  Region sparse;
  sparse.lo = {3, 5, 7};
  sparse.hi = {9, 17, 30};
  const Result<store::RemoteRead> part = client.read_region(opened->id, ds, sparse);
  ASSERT_TRUE(part.ok());
  EXPECT_TRUE(part->extents == sparse.extents());
  const Result<std::vector<std::uint8_t>> local_part =
      reader->read_region_bytes(ds, sparse, DType::kFloat32);
  ASSERT_TRUE(local_part.ok());
  EXPECT_EQ(part->bytes, *local_part);

  // READ_STEP resolves the restart chain server-side; step 5 chains from
  // the keyframe at 4. Whole and sparse, again bit-identical.
  for (std::uint32_t step : {0u, 3u, 5u}) {
    const Result<store::RemoteRead> remote =
        client.read_step(opened->id, "rho", step);
    ASSERT_TRUE(remote.ok()) << "step " << step;
    const Result<std::vector<std::uint8_t>> local =
        restart_bytes(*reader, "rho", step, DType::kFloat32);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(remote->bytes, *local) << "step " << step;

    const Result<store::RemoteRead> remote_sparse =
        client.read_step(opened->id, "rho", step, sparse);
    ASSERT_TRUE(remote_sparse.ok());
    const Result<std::vector<std::uint8_t>> local_sparse = restart_bytes(
        *reader, "rho", step, DType::kFloat32, sparse);
    ASSERT_TRUE(local_sparse.ok());
    EXPECT_EQ(remote_sparse->bytes, *local_sparse) << "step " << step;
  }

  // The decoded values honour the write-time error bound.
  const Result<store::RemoteRead> last = client.read_step(opened->id, "rho", 5);
  ASSERT_TRUE(last.ok());
  EXPECT_LE(max_abs_err(bytes_as<float>(last->bytes), step_field(dims, 5)), kEb);

  // An explicit expected dtype is enforced, not converted: the stored
  // dtype passes, a mismatch comes back as a clean error.
  const Result<store::RemoteRead> as_f32 =
      client.read_step(opened->id, "rho", 2, std::nullopt, DType::kFloat32);
  ASSERT_TRUE(as_f32.ok());
  EXPECT_EQ(as_f32->dtype, DType::kFloat32);
  const Result<store::RemoteRead> as_f64 =
      client.read_step(opened->id, "rho", 2, std::nullopt, DType::kFloat64);
  ASSERT_FALSE(as_f64.ok());

  // STATS reports the server's own request counter.
  const Result<std::vector<store::RemoteStat>> stats = client.stats();
  ASSERT_TRUE(stats.ok());
  bool saw_requests = false;
  for (const store::RemoteStat& s : *stats) {
    if (s.name == "store_requests") {
      saw_requests = true;
      EXPECT_GT(s.value, 0u);
    }
  }
  EXPECT_TRUE(saw_requests);
}

TEST(StoreServer, RemoteWriteStepReadsBackBitExact) {
  TempFile file("writeback");
  const Dims dims = Dims::make_3d(8, 16, 16);

  std::vector<std::vector<std::uint8_t>> remote_bytes;
  {
    ServerEnv env("writeback");
    store::Client client = env.connect();
    const Result<store::RemoteFile> created =
        client.open(file.path, store::OpenMode::kCreate);
    ASSERT_TRUE(created.ok()) << created.status().to_string();
    EXPECT_TRUE(created->writable);
    EXPECT_EQ(created->generation, 0u);  // nothing committed yet

    std::uint64_t last_generation = 0;
    for (int t = 0; t < 5; ++t) {
      const std::vector<float> data = step_field(dims, t);
      const Result<store::RemoteStep> ack = client.write_step(
          created->id, "rho", FieldView::of(data, dims), kEb,
          /*keyframe_interval=*/2);
      ASSERT_TRUE(ack.ok()) << ack.status().to_string();
      EXPECT_EQ(ack->step, static_cast<std::uint32_t>(t));
      EXPECT_EQ(ack->keyframe, t % 2 == 0);
      EXPECT_GT(ack->generation, last_generation);
      last_generation = ack->generation;
      // atomic create: the file is visible once the first batch commits.
      EXPECT_TRUE(std::filesystem::exists(file.path));
    }

    for (std::uint32_t t = 0; t < 5; ++t) {
      const Result<store::RemoteRead> got = client.read_step(created->id, "rho", t);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      EXPECT_LE(max_abs_err(bytes_as<float>(got->bytes),
                            step_field(dims, static_cast<int>(t))),
                kEb);
      remote_bytes.push_back(got->bytes);
    }
    ASSERT_TRUE(env.server.stop().ok());
  }

  // After the server is gone the committed file reads back directly,
  // bit-identical to what the service returned.
  Result<Reader> reader = Reader::open(file.path);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  for (std::uint32_t t = 0; t < 5; ++t) {
    const Result<std::vector<std::uint8_t>> local =
        restart_bytes(*reader, "rho", t, DType::kFloat32);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(remote_bytes[t], *local) << "step " << t;
  }
}

TEST(StoreServer, ConcurrentWritersAreBatchedIntoGroupCommits) {
  TempFile file("batched");
  const Dims dims = Dims::make_3d(8, 12, 16);
  constexpr int kWriters = 8;

  ServerEnv env("batched");
  store::Client admin = env.connect();
  const Result<store::RemoteFile> created =
      admin.open(file.path, store::OpenMode::kCreate);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  const std::uint32_t file_id = created->id;

  const Telemetry before = metrics_snapshot();

  // Every writer brings distinct data; the server assigns steps in
  // arrival order, so the mapping step -> payload is only known from the
  // acks. Any write failure lands in `errors`, asserted on the main
  // thread (the gtest shim's assertions are not thread-safe).
  std::vector<std::vector<float>> payloads(kWriters);
  std::vector<std::uint32_t> acked_step(kWriters, 0);
  std::vector<std::string> errors(kWriters);
  std::atomic<int> started{0};
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    payloads[static_cast<std::size_t>(i)] = step_field(dims, i);
    writers.emplace_back([&, i] {
      try {
        store::Client client = env.connect();
        started.fetch_add(1);
        while (started.load() < kWriters) std::this_thread::yield();
        const Result<store::RemoteStep> ack = client.write_step(
            file_id, "rho", FieldView::of(payloads[static_cast<std::size_t>(i)], dims),
            kEb, /*keyframe_interval=*/4);
        if (!ack.ok()) {
          errors[static_cast<std::size_t>(i)] = ack.status().to_string();
          return;
        }
        acked_step[static_cast<std::size_t>(i)] = ack->step;
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(i)] = e.what();
      }
    });
  }
  for (auto& t : writers) t.join();
  for (int i = 0; i < kWriters; ++i) {
    EXPECT_TRUE(errors[static_cast<std::size_t>(i)].empty())
        << "writer " << i << ": " << errors[static_cast<std::size_t>(i)];
  }

  // The acked steps are a permutation of 0..kWriters-1.
  std::vector<bool> seen(kWriters, false);
  for (const std::uint32_t s : acked_step) {
    ASSERT_LT(s, static_cast<std::uint32_t>(kWriters));
    EXPECT_FALSE(seen[s]) << "step " << s << " acked twice";
    seen[s] = true;
  }

  // Group commit: 8 concurrent writers land in at most 8 — and, with any
  // admission overlap, typically far fewer — commits. At least one batch
  // ran either way.
  const Telemetry after = metrics_snapshot();
  const std::uint64_t batches = after.store_write_batches - before.store_write_batches;
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, static_cast<std::uint64_t>(kWriters));

  // Every step reads back as the payload of the writer it was acked to.
  for (int i = 0; i < kWriters; ++i) {
    const Result<store::RemoteRead> got =
        admin.read_step(file_id, "rho", acked_step[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_LE(max_abs_err(bytes_as<float>(got->bytes),
                          payloads[static_cast<std::size_t>(i)]),
              kEb)
        << "writer " << i << " step " << acked_step[static_cast<std::size_t>(i)];
  }
}

TEST(StoreServer, CacheBeatsColdChainDecodeOnHotSparseReads) {
  TempFile file("hotread");
  const Dims dims = Dims::make_3d(48, 48, 48);
  // Step 11 with keyframe interval 12 chains twelve decodes — the
  // worst-case read the decoded-block cache exists to absorb.
  write_series_local(file.path, dims, 12, 12);

  ServerEnv cold("hotread_cold", store::StoreOptions().with_cache_bytes(0));
  ServerEnv warm("hotread_warm");
  store::Client cold_client = cold.connect();
  store::Client warm_client = warm.connect();
  const Result<store::RemoteFile> cold_file = cold_client.open(file.path);
  const Result<store::RemoteFile> warm_file = warm_client.open(file.path);
  ASSERT_TRUE(cold_file.ok());
  ASSERT_TRUE(warm_file.ok());

  Region sparse;
  sparse.lo = {8, 8, 8};
  sparse.hi = {24, 24, 24};
  constexpr int kReads = 8;

  std::vector<std::uint8_t> reference;
  const auto timed_reads = [&](store::Client& client, std::uint32_t id) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReads; ++i) {
      const Result<store::RemoteRead> got = client.read_step(id, "rho", 11, sparse);
      if (!got.ok()) throw std::runtime_error(got.status().to_string());
      if (reference.empty()) {
        reference = got->bytes;
      } else if (got->bytes != reference) {
        throw std::runtime_error("hot read diverged from cold read");
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  // Prime both servers once, untimed: the warm server's first read is the
  // one decode its cache then amortizes; the cold server decodes anew on
  // every request regardless.
  (void)timed_reads(cold_client, cold_file->id);
  const Telemetry before = metrics_snapshot();
  const double cold_ms = timed_reads(cold_client, cold_file->id);
  (void)timed_reads(warm_client, warm_file->id);  // includes the one priming decode
  const double hot_ms = timed_reads(warm_client, warm_file->id);
  const Telemetry after = metrics_snapshot();

  // The acceptance pin: repeated hot sparse reads beat the cold chain
  // decode by at least 2x, and the wins are visible in the hit counter.
  EXPECT_GE(cold_ms, 2.0 * hot_ms)
      << "cold " << cold_ms << " ms vs hot " << hot_ms << " ms";
  EXPECT_GE(after.store_cache_hits - before.store_cache_hits,
            static_cast<std::uint64_t>(kReads));
  // The cold server (cache_bytes 0) misses on every one of its reads.
  EXPECT_GE(after.store_cache_misses - before.store_cache_misses,
            static_cast<std::uint64_t>(kReads));
}

TEST(StoreServer, EvictionUnderByteBudgetPressureStaysBitExact) {
  TempFile file("pressure");
  const Dims dims = Dims::make_3d(48, 48, 48);
  write_series_local(file.path, dims, 12, 12);

  // Budget fits one 16^3 float region (16 KiB) but not two, so the two
  // alternating mid-chain-decode reads below evict each other while both
  // must keep decoding to identical bytes.
  ServerEnv env("pressure", store::StoreOptions()
                                .with_cache_bytes(24 << 10)
                                .with_cache_shards(1));
  store::Client client = env.connect();
  const Result<store::RemoteFile> opened = client.open(file.path);
  ASSERT_TRUE(opened.ok());

  Region a, b;
  a.lo = {0, 0, 0};
  a.hi = {16, 16, 16};
  b.lo = {32, 32, 32};
  b.hi = {48, 48, 48};

  const Telemetry before = metrics_snapshot();
  std::vector<std::uint8_t> ref_a, ref_b;
  for (int round = 0; round < 4; ++round) {
    const Result<store::RemoteRead> ra = client.read_step(opened->id, "rho", 11, a);
    ASSERT_TRUE(ra.ok()) << ra.status().to_string();
    const Result<store::RemoteRead> rb = client.read_step(opened->id, "rho", 11, b);
    ASSERT_TRUE(rb.ok()) << rb.status().to_string();
    if (round == 0) {
      ref_a = ra->bytes;
      ref_b = rb->bytes;
    } else {
      EXPECT_EQ(ra->bytes, ref_a) << "round " << round;
      EXPECT_EQ(rb->bytes, ref_b) << "round " << round;
    }
  }
  const Telemetry after = metrics_snapshot();
  EXPECT_GT(after.store_cache_evictions - before.store_cache_evictions, 0u);
  // The byte gauge never exceeded the budget's high-water possibility:
  // residency stays within one region's worth under a 24 KiB budget.
  EXPECT_LE(after.store_cache_bytes, before.store_cache_bytes + (24u << 10));
}

TEST(StoreServer, IdenticalInFlightReadsCoalesceIntoOneDecode) {
  TempFile file("coalesce");
  const Dims dims = Dims::make_3d(48, 48, 48);
  write_series_local(file.path, dims, 12, 12);

  ServerEnv env("coalesce");
  store::Client admin = env.connect();
  const Result<store::RemoteFile> opened = admin.open(file.path);
  ASSERT_TRUE(opened.ok());
  const std::uint32_t file_id = opened->id;

  constexpr int kReaders = 6;
  const Telemetry before = metrics_snapshot();

  std::atomic<int> started{0};
  std::vector<std::vector<std::uint8_t>> results(kReaders);
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      try {
        store::Client client = env.connect();
        started.fetch_add(1);
        while (started.load() < kReaders) std::this_thread::yield();
        // All six ask for the same cold 12-link chain decode at once.
        const Result<store::RemoteRead> got = client.read_step(file_id, "rho", 11);
        if (!got.ok()) {
          errors[static_cast<std::size_t>(i)] = got.status().to_string();
          return;
        }
        results[static_cast<std::size_t>(i)] = got->bytes;
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(i)] = e.what();
      }
    });
  }
  for (auto& t : readers) t.join();
  for (int i = 0; i < kReaders; ++i) {
    ASSERT_TRUE(errors[static_cast<std::size_t>(i)].empty())
        << "reader " << i << ": " << errors[static_cast<std::size_t>(i)];
  }
  for (int i = 1; i < kReaders; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], results[0]) << "reader " << i;
  }

  // Exactly one decode ran; everyone else either joined the flight or hit
  // the freshly resident entry, depending on arrival time.
  const Telemetry after = metrics_snapshot();
  EXPECT_EQ(after.store_cache_misses - before.store_cache_misses, 1u);
  EXPECT_EQ((after.store_cache_hits - before.store_cache_hits) +
                (after.store_coalesced - before.store_coalesced),
            static_cast<std::uint64_t>(kReaders - 1));
}

TEST(StoreServer, TornCommitKeepsOldStateAndPoisonsTheWriter) {
  TempFile file("torn");
  const Dims dims = Dims::make_3d(8, 16, 16);

  ServerEnv env("torn");
  store::Client client = env.connect();
  const Result<store::RemoteFile> created =
      client.open(file.path, store::OpenMode::kCreate);
  ASSERT_TRUE(created.ok());
  const std::uint32_t file_id = created->id;

  // Two committed steps form the "old" state.
  std::vector<std::vector<std::uint8_t>> committed;
  for (int t = 0; t < 2; ++t) {
    const std::vector<float> data = step_field(dims, t);
    const Result<store::RemoteStep> ack = client.write_step(
        file_id, "rho", FieldView::of(data, dims), kEb, /*keyframe_interval=*/2);
    ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  }
  for (std::uint32_t t = 0; t < 2; ++t) {
    const Result<store::RemoteRead> got = client.read_step(file_id, "rho", t);
    ASSERT_TRUE(got.ok());
    committed.push_back(got->bytes);
  }

  // Tear the next batch's first pwrite mid-sector and simulate power
  // loss. The in-process server shares the fault hooks, so the tear fires
  // inside its write batch.
  {
    util::fault::Plan plan;
    plan.op = util::fault::Op::kWrite;
    plan.action = util::fault::Action::kTear;
    plan.nth = 1;
    plan.tear_bytes = 64;
    util::fault::arm(plan);
    const std::vector<float> data = step_field(dims, 2);
    const Result<store::RemoteStep> torn = client.write_step(
        file_id, "rho", FieldView::of(data, dims), kEb, /*keyframe_interval=*/2);
    util::fault::disarm();
    ASSERT_FALSE(torn.ok());
  }

  // Old-or-new: the failed step never becomes visible, the committed
  // steps stay bit-exact, and the writer is poisoned — later writes fail
  // clean instead of appending onto a torn tail.
  const Result<store::RemoteRead> missing = client.read_step(file_id, "rho", 2);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  for (std::uint32_t t = 0; t < 2; ++t) {
    const Result<store::RemoteRead> got = client.read_step(file_id, "rho", t);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got->bytes, committed[t]) << "step " << t;
  }
  const std::vector<float> retry = step_field(dims, 3);
  const Result<store::RemoteStep> refused = client.write_step(
      file_id, "rho", FieldView::of(retry, dims), kEb, /*keyframe_interval=*/2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // Stopping the server drops the poisoned writer without committing; the
  // last good commit is what survives on disk.
  ASSERT_TRUE(env.server.stop().ok());
  Result<Reader> reader = Reader::open(file.path);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  for (std::uint32_t t = 0; t < 2; ++t) {
    const Result<std::vector<std::uint8_t>> local =
        restart_bytes(*reader, "rho", t, DType::kFloat32);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(committed[t], *local) << "step " << t;
  }
  const Result<ScrubReport> scrubbed = reader->scrub(true);
  ASSERT_TRUE(scrubbed.ok());
  EXPECT_TRUE(scrubbed->ok());
}

TEST(StoreServer, ScrubServesAlongsideConcurrentReaders) {
  TempFile file("scrub");
  const Dims dims = Dims::make_3d(16, 16, 16);
  write_series_local(file.path, dims, 4, 2);

  ServerEnv env("scrub");
  store::Client client = env.connect();
  const Result<store::RemoteFile> opened = client.open(file.path);
  ASSERT_TRUE(opened.ok());
  const std::uint32_t file_id = opened->id;

  const Result<store::RemoteRead> ref = client.read_step(file_id, "rho", 3);
  ASSERT_TRUE(ref.ok());

  std::atomic<bool> stop_reading{false};
  std::string reader_error;
  std::thread background([&] {
    try {
      store::Client bg = env.connect();
      while (!stop_reading.load()) {
        const Result<store::RemoteRead> got = bg.read_step(file_id, "rho", 3);
        if (!got.ok()) {
          reader_error = got.status().to_string();
          return;
        }
        if (got->bytes != ref->bytes) {
          reader_error = "read diverged during scrub";
          return;
        }
      }
    } catch (const std::exception& e) {
      reader_error = e.what();
    }
  });

  for (int i = 0; i < 3; ++i) {
    const Result<ScrubReport> report = client.scrub(file_id, /*deep=*/true);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(report->ok());
    EXPECT_EQ(report->clean, 4u);
  }
  stop_reading.store(true);
  background.join();
  EXPECT_TRUE(reader_error.empty()) << reader_error;
}

TEST(StoreServer, MixedOperationHammerStaysConsistent) {
  TempFile file("hammer");
  const Dims dims = Dims::make_3d(8, 16, 16);
  constexpr int kThreads = 8;
  constexpr int kIters = 20;
  constexpr std::uint32_t kRhoSteps = 4;

  ServerEnv env("hammer");
  store::Client admin = env.connect();
  const Result<store::RemoteFile> created =
      admin.open(file.path, store::OpenMode::kCreate);
  ASSERT_TRUE(created.ok());
  const std::uint32_t file_id = created->id;

  // Seed the read workload: four committed rho steps, captured once as
  // the bit-exact reference every concurrent read must reproduce.
  for (std::uint32_t t = 0; t < kRhoSteps; ++t) {
    const std::vector<float> data = step_field(dims, static_cast<int>(t));
    const Result<store::RemoteStep> ack = admin.write_step(
        file_id, "rho", FieldView::of(data, dims), kEb, /*keyframe_interval=*/2);
    ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  }
  std::vector<std::vector<std::uint8_t>> rho_ref;
  for (std::uint32_t t = 0; t < kRhoSteps; ++t) {
    const Result<store::RemoteRead> got = admin.read_step(file_id, "rho", t);
    ASSERT_TRUE(got.ok());
    rho_ref.push_back(got->bytes);
  }

  Region sparse;
  sparse.lo = {2, 4, 4};
  sparse.hi = {6, 12, 14};

  // >= 8 client threads, mixed READ_STEP / READ_REGION-shaped sparse
  // reads / WRITE_STEP ("aux", whose step assignment is only known from
  // the ack) / SCRUB / LIST / STATS, all against one file. Errors are
  // collected and asserted on the main thread.
  std::vector<std::string> errors(kThreads);
  std::vector<std::vector<std::pair<std::uint32_t, std::vector<float>>>> acked(
      kThreads);
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        store::Client client = env.connect();
        started.fetch_add(1);
        while (started.load() < kThreads) std::this_thread::yield();
        for (int it = 0; it < kIters; ++it) {
          const int op = (it + i) % 5;
          if (op == 0 || op == 1) {
            // Whole-step read: bit-exact against the pre-hammer capture.
            // Concurrent aux commits churn generations; rho's committed
            // bytes never change, so every re-decode must agree.
            const std::uint32_t t =
                static_cast<std::uint32_t>(it + i) % kRhoSteps;
            const Result<store::RemoteRead> got =
                client.read_step(file_id, "rho", t);
            if (!got.ok()) throw std::runtime_error(got.status().to_string());
            if (got->bytes != rho_ref[t]) {
              throw std::runtime_error("rho step diverged under hammer");
            }
          } else if (op == 2) {
            const std::uint32_t t =
                static_cast<std::uint32_t>(it) % kRhoSteps;
            const Result<store::RemoteRead> got =
                client.read_step(file_id, "rho", t, sparse);
            if (!got.ok()) throw std::runtime_error(got.status().to_string());
            if (got->bytes.size() != sparse.count() * sizeof(float)) {
              throw std::runtime_error("sparse read has wrong size");
            }
          } else if (op == 3) {
            std::vector<float> data = step_field(dims, 100 + i * kIters + it);
            const Result<store::RemoteStep> ack = client.write_step(
                file_id, "aux", FieldView::of(data, dims), kEb,
                /*keyframe_interval=*/4);
            if (!ack.ok()) throw std::runtime_error(ack.status().to_string());
            acked[static_cast<std::size_t>(i)].emplace_back(ack->step,
                                                            std::move(data));
          } else {
            if (it % 2 == 0) {
              const Result<ScrubReport> report =
                  client.scrub(file_id, /*deep=*/false);
              if (!report.ok()) {
                throw std::runtime_error(report.status().to_string());
              }
              if (!report->ok()) throw std::runtime_error("scrub found damage");
            } else {
              const Result<std::vector<store::RemoteDataset>> listed =
                  client.list(file_id);
              if (!listed.ok()) {
                throw std::runtime_error(listed.status().to_string());
              }
              const Result<std::vector<store::RemoteStat>> stats = client.stats();
              if (!stats.ok()) throw std::runtime_error(stats.status().to_string());
            }
          }
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(i)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(errors[static_cast<std::size_t>(i)].empty())
        << "thread " << i << ": " << errors[static_cast<std::size_t>(i)];
  }

  // The hammer's aux writes form a dense, duplicate-free step sequence,
  // and each step reads back as the payload of the writer it was acked
  // to, within the bound.
  std::vector<const std::vector<float>*> by_step;
  std::size_t total = 0;
  for (const auto& per_thread : acked) total += per_thread.size();
  by_step.assign(total, nullptr);
  for (const auto& per_thread : acked) {
    for (const auto& [step, data] : per_thread) {
      ASSERT_LT(step, total);
      EXPECT_EQ(by_step[step], nullptr) << "aux step " << step << " acked twice";
      by_step[step] = &data;
    }
  }
  for (std::uint32_t t = 0; t < total; ++t) {
    ASSERT_NE(by_step[t], nullptr) << "aux step " << t << " never acked";
    const Result<store::RemoteRead> got = admin.read_step(file_id, "aux", t);
    ASSERT_TRUE(got.ok()) << "aux step " << t << ": " << got.status().to_string();
    EXPECT_LE(max_abs_err(bytes_as<float>(got->bytes), *by_step[t]), kEb)
        << "aux step " << t;
  }

  // The post-hammer file is fully intact.
  const Result<ScrubReport> report = admin.scrub(file_id, /*deep=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->clean, kRhoSteps + total);
}

TEST(StoreServer, ErrorPathsComeBackAsCleanStatuses) {
  TempFile file("errors");
  const Dims dims = Dims::make_3d(8, 8, 8);
  write_series_local(file.path, dims, 2, 2);

  ServerEnv env("errors");
  store::Client client = env.connect();

  // Unknown file id, unknown dataset/step, unknown path.
  EXPECT_EQ(client.list(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.scrub(99).status().code(), StatusCode::kNotFound);
  const Result<store::RemoteFile> missing = client.open(temp_path("nope.pcw5"));
  ASSERT_FALSE(missing.ok());

  const Result<store::RemoteFile> opened = client.open(file.path);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(client.read_region(opened->id, "no_such_dataset").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.read_step(opened->id, "rho", 42).status().code(),
            StatusCode::kNotFound);

  // Writing to a read-only open fails clean and changes nothing.
  const std::vector<float> data(dims.count(), 1.0f);
  const Result<store::RemoteStep> refused =
      client.write_step(opened->id, "rho", FieldView::of(data, dims), kEb);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // A region outside the field's extents is rejected, not clamped.
  Region out_of_bounds;
  out_of_bounds.lo = {0, 0, 0};
  out_of_bounds.hi = {64, 64, 64};
  EXPECT_FALSE(client.read_step(opened->id, "rho", 0, out_of_bounds).ok());

  // file_id 0 is the catalog listing, never a valid file handle.
  EXPECT_EQ(client.list(0).status().code(), StatusCode::kInvalidArgument);

  // Client-side handle discipline.
  store::Client invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.ping().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(invalid.catalog().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client.close().ok());
  EXPECT_EQ(client.ping().code(), StatusCode::kFailedPrecondition);

  // Nobody home: connect fails with a status, not an exception.
  const Result<store::Client> nobody =
      store::Client::connect("unix:" + temp_path("nobody.sock"));
  ASSERT_FALSE(nobody.ok());
}

TEST(StoreServer, ShutdownRequestStopsTheServer) {
  ServerEnv env("shutdown");
  EXPECT_FALSE(env.server.wait_for_ms(10));

  store::Client client = env.connect();
  ASSERT_TRUE(client.ping().ok());
  ASSERT_TRUE(client.shutdown_server().ok());

  // The request unblocks wait(); stop() is idempotent after it.
  EXPECT_TRUE(env.server.wait_for_ms(5000));
  EXPECT_TRUE(env.server.stop().ok());
  EXPECT_TRUE(env.server.stop().ok());

  store::Server invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.stop().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(invalid.address().empty());
}

}  // namespace

// End-to-end checkpoint integrity: the checksummed sz container v5
// (every single-bit flip detected, run-token blobs included; legacy v1–v4
// blobs, LZ ones included, still readable and never crashing on
// malformed input), the sealed-footer + dual-slot commit
// protocol (a torn last commit degrades to the shadow copy), the scrub
// audit, and degraded series reads (a corrupt mid-chain link falls back
// to the chain's keyframe).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scrub.h"
#include "core/series.h"
#include "h5/file.h"
#include "h5/format.h"
#include "pcw/pcw.h"
#include "support/legacy_fixtures.h"
#include "sz/compressor.h"

namespace pcw {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("pcw_integrity_") + tag + "_" + std::to_string(::getpid()) +
             ".pcw5"))
               .string();
  }
  ~TempFile() {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
};

std::vector<float> smooth_field(const sz::Dims& dims) {
  std::vector<float> out(dims.count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                                0.3 * std::cos(0.003 * static_cast<double>(i)));
  }
  return out;
}

/// A small high-ratio field whose v5 blob carries run tokens: most codes
/// are zero residuals in long runs.
std::vector<std::uint8_t> token_blob(const sz::Dims& dims) {
  sz::Params p;
  p.error_bound = 0.05;
  auto blob = sz::compress<float>(smooth_field(dims), dims, p);
  if (!sz::inspect(blob).run_tokens) throw std::logic_error("fixture lost its run tokens");
  return blob;
}

void flip_bit(std::vector<std::uint8_t>& bytes, std::size_t bit) {
  bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

/// Flips one bit of the file at `path` (byte_offset, bit 0–7).
void flip_file_bit(const std::string& path, std::uint64_t byte_offset, int bit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(byte_offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ (1 << bit));
  f.seekp(static_cast<std::streamoff>(byte_offset));
  f.write(&c, 1);
}

// ---- sz container v5 ------------------------------------------------------

TEST(IntegritySz, V5IsTheDefaultAndRoundTripsUnderEveryVerifyMode) {
  const sz::Dims dims = sz::Dims::make_3d(4, 32, 64);
  const auto data = smooth_field(dims);
  const auto blob = sz::compress<float>(data, dims, sz::Params{});

  const sz::HeaderInfo info = sz::inspect(blob);
  EXPECT_EQ(info.version, 5u);
  EXPECT_FALSE(info.lz_applied);
  EXPECT_TRUE(info.checksummed);

  const auto off = sz::decompress<float>(blob, nullptr, 1, sz::VerifyMode::kOff);
  const auto shallow = sz::decompress<float>(blob, nullptr, 1, sz::VerifyMode::kBlob);
  const auto deep = sz::decompress<float>(blob, nullptr, 2, sz::VerifyMode::kBlock);
  EXPECT_EQ(off, shallow);
  EXPECT_EQ(off, deep);

  const sz::BlobVerifyReport cheap = sz::verify_blob(blob, false);
  EXPECT_TRUE(cheap.parsed);
  EXPECT_TRUE(cheap.checksummed);
  EXPECT_TRUE(cheap.ok) << cheap.detail;
  const sz::BlobVerifyReport thorough = sz::verify_blob(blob, true);
  EXPECT_TRUE(thorough.ok) << thorough.detail;
  EXPECT_TRUE(thorough.damaged_blocks.empty());
}

TEST(IntegritySz, EverySingleBitFlipDetectedSingleBlock) {
  // Small single-block blobs so the sweep can afford every bit: plain
  // codes, and a near-constant field coded in run tokens.
  const sz::Dims dims = sz::Dims::make_1d(96);
  const std::vector<std::uint8_t> blobs[] = {
      sz::compress<float>(smooth_field(dims), dims, sz::Params{}),
      token_blob(sz::Dims::make_3d(1, 32, 64))};
  for (const auto& blob : blobs) {
    ASSERT_EQ(sz::inspect(blob).block_count, 1u);
    for (std::size_t bit = 0; bit < blob.size() * 8; ++bit) {
      auto bad = blob;
      flip_bit(bad, bit);
      // The cheap (header + stored payload CRC) pass covers every byte.
      EXPECT_FALSE(sz::verify_blob(bad, false).ok) << "bit " << bit;
      // The decode path itself must refuse too (never wrong data as success).
      EXPECT_THROW(sz::decompress<float>(bad, nullptr, 1, sz::VerifyMode::kBlock),
                   std::exception)
          << "bit " << bit;
    }
  }
}

// v5 replaces the legacy ">= 1 code bit per element" plausibility rule
// with a per-block cap of 2730 elements per Huffman byte (a 4095-code run
// token costs at least 12 bits). A crafted header claiming more elements
// than its substream can code is refused while parsing — before any
// buffer is sized from it — and the cap itself is the exact boundary.
TEST(IntegritySz, V5HeaderOverTheElementsPerByteCapRejected) {
  const auto blob = token_blob(sz::Dims::make_1d(20000));
  ASSERT_EQ(sz::inspect(blob).block_count, 1u);
  // v5 layout: d0/d1/d2 at 8/16/24, the one index entry at 100 with its
  // elem_count first and huff_bytes next.
  std::uint64_t huff_bytes = 0;
  std::memcpy(&huff_bytes, blob.data() + 108, 8);
  auto craft = [&](std::uint64_t elems) {
    auto bad = blob;
    const std::uint64_t one = 1;
    std::memcpy(bad.data() + 8, &one, 8);
    std::memcpy(bad.data() + 16, &one, 8);
    std::memcpy(bad.data() + 24, &elems, 8);
    std::memcpy(bad.data() + 100, &elems, 8);
    return bad;
  };
  EXPECT_NO_THROW(sz::inspect(craft(huff_bytes * 2730)));
  for (const std::uint64_t elems : {huff_bytes * 2730 + 1, std::uint64_t{1} << 40}) {
    const auto bad = craft(elems);
    try {
      sz::inspect(bad);
      FAIL() << elems << " elements in " << huff_bytes << " bytes parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("inconsistent"), std::string::npos) << e.what();
    }
    EXPECT_THROW(sz::decompress<float>(bad, nullptr, 1, sz::VerifyMode::kOff),
                 std::runtime_error);
    EXPECT_FALSE(sz::verify_blob(bad, true).parsed);
  }
  // Within the cap, a header may still claim a vast substream the blob
  // does not hold: 2^30 Huffman bytes coding 2730 x 2^30 elements. The
  // missing payload is refused before the 11 TB output is sized.
  auto vast = blob;
  const std::uint64_t huff = std::uint64_t{1} << 30, one = 1;
  const std::uint64_t elems = huff * 2730;
  std::uint64_t codebook = 0, raw = 0;
  std::memcpy(&codebook, blob.data() + 52, 8);
  raw = codebook + huff;  // the blob's outliers are dropped
  for (const auto& [off, v] : std::initializer_list<std::pair<std::size_t, std::uint64_t>>{
           {8, one}, {16, one}, {24, elems}, {44, 0}, {60, huff}, {68, raw}, {76, raw},
           {100, elems}, {108, huff}, {116, 0}}) {
    std::memcpy(vast.data() + off, &v, 8);
  }
  ASSERT_NO_THROW(sz::inspect(vast));
  for (const auto mode : {sz::VerifyMode::kOff, sz::VerifyMode::kBlock}) {
    EXPECT_THROW(sz::decompress<float>(vast, nullptr, 1, mode), std::runtime_error);
  }
}

TEST(IntegritySz, LegacyLzBlobEveryStridedFlipDetected) {
  // The stored-CRC hole: in an LZ payload a flipped match offset can
  // expand to the very same bytes when its source is periodic, which no
  // block CRC sees. kBlock closes it with the stored CRC on LZ blobs —
  // pinned on the checked-in v4 + LZ blob, as writers no longer run LZ.
  const auto blob = testsupport::load_fixture(testsupport::kV4Lz);
  ASSERT_TRUE(sz::inspect(blob).lz_applied);
  for (std::size_t bit = 0; bit < blob.size() * 8; bit += 7) {
    auto bad = blob;
    flip_bit(bad, bit);
    EXPECT_FALSE(sz::verify_blob(bad, false).ok) << "bit " << bit;
    EXPECT_THROW(sz::decompress<float>(bad, nullptr, 1, sz::VerifyMode::kBlock),
                 std::exception)
        << "bit " << bit;
  }
}

TEST(IntegritySz, StridedBitFlipSweepMultiBlock) {
  const sz::Dims dims = sz::Dims::make_3d(16, 64, 64);  // 2 x kMinBlockElems
  const auto data = smooth_field(dims);
  const auto blob = sz::compress<float>(data, dims, sz::Params{});
  ASSERT_GT(sz::inspect(blob).block_count, 1u);

  for (std::size_t bit = 0; bit < blob.size() * 8; bit += 101) {
    auto bad = blob;
    flip_bit(bad, bit);
    EXPECT_FALSE(sz::verify_blob(bad, false).ok) << "bit " << bit;
    EXPECT_THROW(sz::decompress<float>(bad, nullptr, 1, sz::VerifyMode::kBlock),
                 std::exception)
        << "bit " << bit;
  }

  // The region entry points decode in place and must refuse every flip
  // too: a whole-field region (every block dequantized straight into the
  // output) and a mid-block slab (staged partial blocks around in-place
  // ones), on 10 equal slabs — enough for a lane group at every level.
  const sz::Dims wide = sz::Dims::make_3d(20, 128, 128);
  const auto wide_blob = sz::compress<float>(smooth_field(wide), wide, sz::Params{});
  ASSERT_EQ(sz::inspect(wide_blob).block_count, 10u);
  const sz::Region regions[] = {sz::Region::of(wide),
                                sz::Region{{1, 0, 0}, {19, 128, 128}}};
  for (std::size_t bit = 0; bit < wide_blob.size() * 8; bit += 101) {
    auto bad = wide_blob;
    flip_bit(bad, bit);
    for (const sz::Region& region : regions) {
      EXPECT_THROW(sz::decompress_region<float>(bad, region, 1, nullptr,
                                                sz::VerifyMode::kBlock),
                   std::exception)
          << "bit " << bit << " planes [" << region.lo[0] << "," << region.hi[0] << ")";
    }
  }
}

TEST(IntegritySz, DeepVerifyLocalizesDamageToBlocks) {
  const sz::Dims dims = sz::Dims::make_3d(16, 64, 64);  // 2 x kMinBlockElems
  const auto data = smooth_field(dims);
  // v5 stores the raw payload, so a flipped byte lands in one block.
  const auto blob = sz::compress<float>(data, dims, sz::Params{});
  ASSERT_GT(sz::inspect(blob).block_count, 1u);

  auto bad = blob;
  bad.back() ^= 0x40;  // last byte belongs to the last block's substreams
  const sz::BlobVerifyReport rep = sz::verify_blob(bad, true);
  EXPECT_TRUE(rep.parsed);
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.damaged_blocks.size(), 1u) << rep.detail;
}

TEST(IntegritySz, LegacyContainersStillDecodeAndVerifyModesAreNoOps) {
  const auto blob = testsupport::load_fixture(testsupport::kV2Plain);
  ASSERT_EQ(sz::inspect(blob).version, 2u);
  EXPECT_FALSE(sz::inspect(blob).checksummed);

  // Verification is a structural no-op below v4 — same output either way.
  const auto off = sz::decompress<float>(blob, nullptr, 1, sz::VerifyMode::kOff);
  const auto deep = sz::decompress<float>(blob, nullptr, 1, sz::VerifyMode::kBlock);
  EXPECT_EQ(testsupport::fnv1a(off), testsupport::kV2Plain.decoded_fnv1a);
  EXPECT_EQ(off, deep);
  const sz::BlobVerifyReport rep = sz::verify_blob(blob, true);
  EXPECT_TRUE(rep.parsed);
  EXPECT_FALSE(rep.checksummed);
  EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(IntegritySz, TruncationSweepNeverAcceptsAPrefix) {
  const sz::Dims dims = sz::Dims::make_3d(2, 32, 64);
  const auto data = smooth_field(dims);
  struct Case {
    std::vector<std::uint8_t> blob;
    std::vector<float> prev;  // reference step for temporal blocks
  };
  std::vector<Case> cases;
  cases.push_back({sz::compress<float>(data, dims, sz::Params{}), {}});  // v5
  cases.push_back({token_blob(dims), {}});                               // v5, run tokens
  // Legacy blobs, whose writers are gone: plain v2/v3, and LZ ones, whose
  // empty trailing literal token is the one prefix a legacy reader may
  // accept.
  const auto v2_plain = testsupport::load_fixture(testsupport::kV2Plain);
  cases.push_back({v2_plain, {}});
  cases.push_back({testsupport::load_fixture(testsupport::kV3Plain),
                   sz::decompress<float>(v2_plain)});
  const auto v2_lz = testsupport::load_fixture(testsupport::kV2Lz);
  cases.push_back({v2_lz, {}});
  cases.push_back({testsupport::load_fixture(testsupport::kV3Lz), sz::decompress<float>(v2_lz)});

  for (const Case& c : cases) {
    const auto& blob = c.blob;
    const std::span<const float> prev(c.prev);
    const std::uint32_t version = sz::inspect(blob).version;
    const auto reference = sz::decompress<float>(blob, prev);
    for (std::size_t keep = 0; keep < blob.size();
         keep += (keep < 128 ? 1 : 197)) {
      const std::vector<std::uint8_t> cut(blob.begin(),
                                          blob.begin() +
                                              static_cast<std::ptrdiff_t>(keep));
      bool threw = false;
      std::vector<float> out;
      try {
        out = sz::decompress<float>(cut, prev);
      } catch (const std::exception&) {
        threw = true;  // clean rejection — never a crash or OOM
      }
      const sz::BlobVerifyReport rep = sz::verify_blob(cut, true);
      if (version >= 4) {
        // The checksummed container detects every truncation outright.
        EXPECT_TRUE(threw) << "v" << version << " keep " << keep;
        EXPECT_FALSE(rep.ok) << "v" << version << " keep " << keep;
      } else if (!threw) {
        // A legacy blob may tolerate losing semantically-empty trailing
        // bytes (an LZ end-of-stream token) — acceptable only when the
        // decode is bit-identical: wrong data must never pass as success.
        EXPECT_EQ(out, reference) << "v" << version << " keep " << keep;
        EXPECT_TRUE(rep.ok) << "v" << version << " keep " << keep;
      }
    }
  }
}

// ---- sealed footer + dual-slot superblock ---------------------------------

std::vector<h5::DatasetDesc> sample_descs() {
  h5::DatasetDesc a;
  a.name = "plain";
  a.dtype = h5::DataType::kFloat64;
  a.global_dims = sz::Dims::make_3d(2, 3, 4);
  a.layout = h5::Layout::kContiguous;
  a.file_offset = 4096;
  a.nbytes = 2 * 3 * 4 * 8;
  h5::DatasetDesc b;
  b.name = "rho@t0003";
  b.dtype = h5::DataType::kFloat32;
  b.global_dims = sz::Dims::make_3d(8, 8, 8);
  b.layout = h5::Layout::kPartitioned;
  b.filter = h5::FilterId::kSz;
  b.abs_error_bound = 1e-3;
  b.series_member = true;
  b.series_base = "rho";
  b.series_step = 3;
  b.series_ref_step = 2;
  h5::PartitionRecord part;
  part.rank = 1;
  part.elem_count = 256;
  part.file_offset = 8192;
  part.reserved_bytes = 700;
  part.actual_bytes = 650;
  b.partitions.push_back(part);
  return {a, b};
}

TEST(IntegrityFooter, SealedFooterRoundTripsAndEveryBitFlipIsRejected) {
  const auto descs = sample_descs();
  const std::vector<std::uint8_t> sealed = h5::seal_footer(descs);
  const auto parsed = h5::parse_sealed_footer(sealed);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "plain");
  EXPECT_EQ(parsed[1].series_base, "rho");
  EXPECT_EQ(parsed[1].partitions.size(), 1u);
  EXPECT_EQ(parsed[1].partitions[0].actual_bytes, 650u);

  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    auto bad = sealed;
    flip_bit(bad, bit);
    EXPECT_THROW(h5::parse_sealed_footer(bad), std::exception) << "bit " << bit;
  }
}

TEST(IntegrityFooter, SuperblockSlotRoundTripsAndRejectsCorruption) {
  h5::SuperblockSlot slot;
  slot.seq = 7;
  slot.footer_off = 123456;
  slot.footer_size = 789;
  slot.footer_crc = 0xdeadbeef;
  std::uint8_t bytes[h5::kSuperblockSlotSize] = {};
  h5::serialize_slot(slot, bytes);
  const auto back = h5::parse_slot(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 7u);
  EXPECT_EQ(back->footer_off, 123456u);
  EXPECT_EQ(back->footer_size, 789u);
  EXPECT_EQ(back->footer_crc, 0xdeadbeefu);

  // Every bit of the checksummed region must matter.
  for (std::size_t bit = 0; bit < 40 * 8; ++bit) {
    std::uint8_t bad[h5::kSuperblockSlotSize];
    std::memcpy(bad, bytes, sizeof(bad));
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(h5::parse_slot(bad).has_value()) << "bit " << bit;
  }
}

/// Three-commit file built directly on the h5 layer (contiguous raw
/// datasets, atomic_create off so the path is stable for corruption).
void build_committed_file(const std::string& path, int commits) {
  h5::FileOptions opts;
  opts.atomic_create = false;
  auto file = h5::File::create(path, opts);
  for (int i = 1; i <= commits; ++i) {
    std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(i));
    const auto off = file->alloc(payload.size());
    file->pwrite(off, payload);
    h5::DatasetDesc d;
    const std::string num = std::to_string(i);
    d.name = "d" + num;
    d.dtype = h5::DataType::kBytes;
    d.global_dims = sz::Dims::make_1d(payload.size());
    d.file_offset = off;
    d.nbytes = payload.size();
    file->add_dataset(d);
    file->commit();
  }
  // No close: each state is already durable via commit; the destructor
  // must not be needed for consistency.
}

TEST(IntegrityFooter, TornLastCommitDegradesToShadowFooter) {
  TempFile tmp("torn_commit");
  build_committed_file(tmp.path, 2);
  {
    auto file = h5::File::open(tmp.path);
    EXPECT_EQ(file->datasets().size(), 2u);
  }

  // Commit seq 2 lives in slot 0 (seq % 2). Corrupt its slot: the reader
  // must fall back to the shadow copy (commit 1), not fail.
  flip_file_bit(tmp.path, 10, 3);  // inside slot 0's seq field
  {
    auto file = h5::File::open(tmp.path);
    ASSERT_EQ(file->datasets().size(), 1u);
    EXPECT_EQ(file->datasets()[0].name, "d1");
    const auto payload = file->pread(file->datasets()[0].file_offset, 64);
    EXPECT_EQ(payload[0], 1u);
  }
  flip_file_bit(tmp.path, 10, 3);  // restore slot 0

  // Corrupt the newest *footer* instead (slot intact, body torn): same
  // fallback, via the footer checksum.
  std::uint8_t sb[h5::kSuperblockSize];
  {
    std::ifstream f(tmp.path, std::ios::binary);
    f.read(reinterpret_cast<char*>(sb), sizeof(sb));
  }
  const auto newest = h5::parse_slot(sb);
  ASSERT_TRUE(newest.has_value());
  ASSERT_EQ(newest->seq, 2u);
  flip_file_bit(tmp.path, newest->footer_off + newest->footer_size / 2, 5);
  {
    auto file = h5::File::open(tmp.path);
    ASSERT_EQ(file->datasets().size(), 1u);
    EXPECT_EQ(file->datasets()[0].name, "d1");
  }

  // Both commit records gone: clean failure, no garbage parse.
  flip_file_bit(tmp.path, 10, 3);                     // slot 0 again
  flip_file_bit(tmp.path, h5::kSuperblockSlotSize + 10, 3);  // slot 1
  EXPECT_THROW(h5::File::open(tmp.path), std::runtime_error);
}

TEST(IntegrityFooter, NeverCommittedFileReportsNoFooter) {
  TempFile tmp("never_committed");
  {
    h5::FileOptions opts;
    opts.atomic_create = false;
    auto file = h5::File::create(tmp.path, opts);
    const auto off = file->alloc(128);
    file->pwrite(off, std::vector<std::uint8_t>(128, 0xab));
    // Destroyed without commit/close.
  }
  try {
    h5::File::open(tmp.path);
    FAIL() << "open of a never-committed file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no committed footer"), std::string::npos)
        << e.what();
  }
}

TEST(IntegrityFooter, LegacyFooterExtentPastEofRejected) {
  TempFile tmp("legacy_bad_extent");
  // Hand-craft a v1 superblock whose footer extent exceeds the file.
  std::vector<std::uint8_t> head(h5::kLegacySuperblockSize, 0);
  const std::uint32_t magic = h5::kMagic, version = 1;
  const std::uint64_t footer_off = 16, footer_size = 1ull << 40;
  std::memcpy(head.data(), &magic, 4);
  std::memcpy(head.data() + 4, &version, 4);
  std::memcpy(head.data() + 8, &footer_off, 8);
  std::memcpy(head.data() + 16, &footer_size, 8);
  {
    std::ofstream f(tmp.path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  }
  try {
    h5::File::open(tmp.path);
    FAIL() << "bogus footer extent must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("past end of file"), std::string::npos)
        << e.what();
  }
}

// ---- degraded series reads + scrub ----------------------------------------

constexpr int kSteps = 6;
const sz::Dims kSeriesDims = sz::Dims::make_3d(4, 32, 64);

std::vector<float> series_step_field(int t) {
  std::vector<float> out(kSeriesDims.count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i) + 0.05 * t));
  }
  return out;
}

/// Single-rank series: 6 steps, keyframes at 0 and 4.
void write_series(const std::string& path) {
  h5::FileOptions opts;
  opts.atomic_create = false;
  auto file = h5::File::create(path, opts);
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    core::SeriesConfig cfg;
    cfg.keyframe_interval = 4;
    core::SeriesWriter<float> writer(*file, cfg);
    for (int t = 0; t < kSteps; ++t) {
      const auto data = series_step_field(t);
      core::FieldSpec<float> spec;
      spec.name = "rho";
      spec.local = data;
      spec.local_dims = kSeriesDims;
      spec.global_dims = kSeriesDims;
      spec.params.error_bound = 1e-3;
      const core::FieldSpec<float> specs[] = {spec};
      writer.write_step(comm, specs);
    }
  });
  file->close_single();
}

/// Flips one payload byte of the series step dataset for `step`.
void corrupt_step_payload(const std::string& path, std::uint32_t step) {
  std::uint64_t offset = 0;
  {
    auto file = h5::File::open(path);
    const h5::DatasetDesc* desc = file->find_series("rho", step);
    ASSERT_NE(desc, nullptr);
    ASSERT_FALSE(desc->partitions.empty());
    const h5::PartitionRecord& part = desc->partitions[0];
    offset = part.file_offset + part.actual_bytes / 2;
  }
  flip_file_bit(path, offset, 2);
}

TEST(IntegritySeries, CorruptMidChainLinkFallsBackToKeyframe) {
  TempFile tmp("degraded_read");
  write_series(tmp.path);
  corrupt_step_payload(tmp.path, 5);

  auto file = h5::File::open(tmp.path);

  // Strict mode: the failure names dataset and partition.
  core::SeriesReadConfig strict;
  try {
    core::restart_at_step<float>(*file, "rho", 5, std::nullopt, strict);
    FAIL() << "corrupt step must fail a strict read";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rho@"), std::string::npos) << what;
    EXPECT_NE(what.find("partition"), std::string::npos) << what;
  }

  // Degraded mode: the whole field arrives from the chain's keyframe
  // (step 4), bit-identical to reading that keyframe directly.
  core::SeriesReadConfig degraded;
  degraded.degraded = true;
  core::SeriesReadReport report;
  const auto got =
      core::restart_at_step<float>(*file, "rho", 5, std::nullopt, degraded, &report);
  const auto keyframe = core::restart_at_step<float>(*file, "rho", 4);
  ASSERT_EQ(got.size(), keyframe.size());
  EXPECT_EQ(0, std::memcmp(got.data(), keyframe.data(), got.size() * sizeof(float)));
  ASSERT_EQ(report.degraded.size(), 1u);
  EXPECT_EQ(report.degraded[0].step_requested, 5u);
  EXPECT_EQ(report.degraded[0].step_recovered, 4u);
  EXPECT_NE(report.degraded[0].dataset.find("rho"), std::string::npos);
  EXPECT_FALSE(report.degraded[0].detail.empty());

  // Undamaged steps read clean in both modes.
  const auto s3 = core::restart_at_step<float>(*file, "rho", 3, std::nullopt, degraded,
                                               &report);
  EXPECT_EQ(s3.size(), kSeriesDims.count());
}

TEST(IntegritySeries, CorruptKeyframeStillFails) {
  TempFile tmp("corrupt_keyframe");
  write_series(tmp.path);
  corrupt_step_payload(tmp.path, 4);

  auto file = h5::File::open(tmp.path);
  core::SeriesReadConfig degraded;
  degraded.degraded = true;
  // The keyframe is the fallback target; when it is the damaged link
  // there is nothing to degrade to.
  EXPECT_THROW(core::restart_at_step<float>(*file, "rho", 5, std::nullopt, degraded),
               std::runtime_error);
  EXPECT_THROW(core::restart_at_step<float>(*file, "rho", 4, std::nullopt, degraded),
               std::runtime_error);
  // Steps on the first keyframe's chain are untouched.
  const auto s3 = core::restart_at_step<float>(*file, "rho", 3, std::nullopt, degraded);
  EXPECT_EQ(s3.size(), kSeriesDims.count());
}

TEST(IntegrityScrub, CleanFileScrubsClean) {
  TempFile tmp("scrub_clean");
  write_series(tmp.path);
  auto file = h5::File::open(tmp.path);
  const core::ScrubReport report = core::scrub_file(*file, true);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.clean, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(report.damaged, 0u);
  EXPECT_EQ(report.unreadable, 0u);
}

TEST(IntegrityScrub, DamagedDeltaStepIsSalvageable) {
  TempFile tmp("scrub_delta");
  write_series(tmp.path);
  corrupt_step_payload(tmp.path, 5);
  auto file = h5::File::open(tmp.path);
  const core::ScrubReport report = core::scrub_file(*file, true);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.damaged, 1u);
  EXPECT_EQ(report.unreadable, 0u);
  for (const core::DatasetScrub& d : report.datasets) {
    if (d.state == core::DatasetHealth::kClean) continue;
    EXPECT_NE(d.name.find("rho"), std::string::npos);
    EXPECT_TRUE(d.salvageable) << d.name;
    EXPECT_FALSE(d.detail.empty());
  }
}

TEST(IntegrityScrub, DamagedKeyframePoisonsItsChain) {
  TempFile tmp("scrub_keyframe");
  write_series(tmp.path);
  corrupt_step_payload(tmp.path, 4);
  auto file = h5::File::open(tmp.path);
  const core::ScrubReport report = core::scrub_file(*file, true);
  EXPECT_FALSE(report.ok());
  // Step 4's own bytes are damaged; step 5's chain passes through it.
  EXPECT_EQ(report.damaged, 2u);
  for (const core::DatasetScrub& d : report.datasets) {
    if (d.state == core::DatasetHealth::kClean) continue;
    // Neither is recoverable: the fallback keyframe itself is the damage.
    EXPECT_FALSE(d.salvageable) << d.name;
  }
}

TEST(IntegrityScrub, FacadeScrubAndVerifyKnobsAgree) {
  TempFile tmp("scrub_facade");
  write_series(tmp.path);
  corrupt_step_payload(tmp.path, 5);

  const Result<Reader> reader = Reader::open(tmp.path);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  const Result<ScrubReport> scrubbed = reader->scrub();
  ASSERT_TRUE(scrubbed.ok()) << scrubbed.status().to_string();
  EXPECT_FALSE(scrubbed->ok());
  EXPECT_EQ(scrubbed->damaged, 1u);
  bool found = false;
  for (const ScrubDataset& d : scrubbed->datasets) {
    if (d.state == ScrubHealth::kClean) continue;
    found = true;
    EXPECT_TRUE(d.salvageable);
  }
  EXPECT_TRUE(found);

  // The same corruption surfaces as kCorruptData through the facade's
  // series read, and the degraded knob turns it into a recovery.
  SeriesReadOptions strict;
  const auto failed = restart<float>(*reader, "rho", 5, std::nullopt, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCorruptData)
      << failed.status().to_string();

  SeriesReadReport report;
  const auto recovered = restart<float>(*reader, "rho", 5, std::nullopt,
                                        SeriesReadOptions().with_degraded(true),
                                        &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  ASSERT_EQ(report.degraded.size(), 1u);
  EXPECT_EQ(report.degraded[0].step_recovered, 4u);
}

}  // namespace
}  // namespace pcw

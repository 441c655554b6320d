// Tests for the pluggable codec registry: built-in entries and their
// capability flags, out-of-tree registration through pcw::register_codec,
// a full write→read round-trip of a custom codec through the h5 layer
// (which never learns the codec exists), duplicate-id rejection, and the
// clean unknown-FilterId error path (no throw across the boundary).
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "h5/codec_registry.h"
#include "h5/file.h"
#include "pcw/pcw.h"
#include "support/toy_codec.h"

namespace {

using namespace pcw;
using testsupport::kToyId;
using testsupport::ToyXorCodec;

/// Later registrations of the same id observe kAlreadyExists, which is
/// itself part of the contract.
void ensure_toy_registered() { ASSERT_TRUE(testsupport::register_toy_codec().ok()); }

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CodecRegistryTest, BuiltinsAndCapabilityFlags) {
  const std::vector<CodecInfo> codecs = registered_codecs();
  ASSERT_GE(codecs.size(), 3u);
  // Built-ins lead the listing.
  EXPECT_EQ(codecs[0].filter_id, kCodecNone);
  EXPECT_EQ(codecs[1].filter_id, kCodecSz);
  EXPECT_EQ(codecs[2].filter_id, kCodecZfp);
  EXPECT_TRUE(codecs[0].builtin);

  const Result<CodecInfo> sz = find_codec(kCodecSz);
  ASSERT_TRUE(sz.ok());
  EXPECT_EQ(sz->name, "sz");
  // Only the sz container carries a block index and the temporal
  // predictor; the h5 layer keys partial decode off these flags.
  EXPECT_TRUE(sz->caps.supports_decode_region);
  EXPECT_TRUE(sz->caps.supports_temporal);
  const Result<CodecInfo> none = find_codec(kCodecNone);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->caps.supports_decode_region);

  const Result<CodecInfo> unknown = find_codec(4242);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(CodecRegistryTest, DuplicateAndInvalidRegistrationRejected) {
  ensure_toy_registered();
  // Same id again — taken.
  Status dup = register_codec(kToyId, "toy-again", CodecCaps{},
                              [] { return std::make_unique<ToyXorCodec>(); });
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  // Built-in ids are just as protected.
  Status builtin = register_codec(kCodecSz, "impostor", CodecCaps{},
                                  [] { return std::make_unique<ToyXorCodec>(); });
  EXPECT_EQ(builtin.code(), StatusCode::kAlreadyExists);
  // Empty factory is a caller bug.
  Status empty = register_codec(200, "no-factory", CodecCaps{}, nullptr);
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
}

TEST(CodecRegistryTest, CustomCodecRoundTripsThroughH5) {
  ensure_toy_registered();
  const std::string path = temp_path("codec_registry_roundtrip.pcw5");
  const Dims global = Dims::make_3d(4, 8, 8);
  const Dims local = Dims::make_3d(2, 8, 8);
  const int ranks = 2;

  std::vector<std::vector<float>> slabs(ranks, std::vector<float>(local.count()));
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < slabs[r].size(); ++i) {
      slabs[r][i] = static_cast<float>(i + 100 * r);
    }
  }

  Result<Writer> writer = Writer::create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(run(ranks, [&](Rank& rank) {
                Field field;
                field.name = "toy_field";
                field.local =
                    FieldView::of(slabs[static_cast<std::size_t>(rank.rank())], local);
                field.global_dims = global;
                field.codec = CodecOptions().with_codec(kToyId);
                const Result<WriteReport> report = writer->write(rank, {&field, 1});
                if (!report.ok()) throw std::runtime_error(report.status().to_string());
                const Status closed = writer->close(rank);
                if (!closed.ok()) throw std::runtime_error(closed.to_string());
              }).ok());

  Result<Reader> reader = Reader::open(path);
  ASSERT_TRUE(reader.ok());
  const Result<DatasetInfo> info = reader->dataset("toy_field");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->filter_id, kToyId);
  EXPECT_EQ(info->layout, Layout::kPartitioned);

  // The toy codec is lossless: the round-trip is bit-exact, through the
  // very same read path the built-ins use.
  const Result<std::vector<float>> full = reader->read<float>("toy_field");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), global.count());
  for (int r = 0; r < ranks; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * local.count();
    for (std::size_t i = 0; i < local.count(); ++i) {
      ASSERT_EQ((*full)[off + i], slabs[static_cast<std::size_t>(r)][i]);
    }
  }

  // Region reads work via the generic decode-then-slice fallback (the
  // toy codec reports no decode_region capability).
  const Region plane{{1, 0, 0}, {2, global.d1, global.d2}};
  const Result<std::vector<float>> slice = reader->read_region<float>("toy_field", plane);
  ASSERT_TRUE(slice.ok());
  ASSERT_EQ(slice->size(), plane.count());
  const std::size_t base = global.d1 * global.d2;
  for (std::size_t i = 0; i < slice->size(); ++i) {
    ASSERT_EQ((*slice)[i], (*full)[base + i]);
  }

  // The standalone blob surface reaches registered codecs too.
  const Result<std::vector<std::uint8_t>> blob = encode_blob(
      FieldView::of(slabs[0], local), CodecOptions().with_codec(kToyId));
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), slabs[0].size() * sizeof(float) + 8);

  reader = Reader();
  writer = Writer();
  std::filesystem::remove(path);
}

TEST(CodecRegistryTest, UnknownFilterIdYieldsCleanError) {
  // A file whose footer names a codec this build does not have: the
  // façade reports kNotFound with the registered set named — no throw
  // crosses the boundary, and the rest of the file stays readable.
  const std::string path = temp_path("codec_registry_unknown.pcw5");
  {
    auto file = h5::File::create(path);
    std::vector<std::uint8_t> payload{1, 2, 3, 4};
    const std::uint64_t off = file->alloc(payload.size());
    file->pwrite(off, payload);

    h5::DatasetDesc desc;
    desc.name = "from_the_future";
    desc.dtype = h5::DataType::kFloat32;
    desc.global_dims = sz::Dims::make_1d(1);
    desc.layout = h5::Layout::kPartitioned;
    desc.filter = static_cast<h5::FilterId>(4242);
    h5::PartitionRecord part;
    part.elem_count = 1;
    part.file_offset = off;
    part.reserved_bytes = part.actual_bytes = payload.size();
    desc.partitions.push_back(part);
    file->add_dataset(std::move(desc));
    file->close_single();
  }

  Result<Reader> reader = Reader::open(path);
  ASSERT_TRUE(reader.ok());
  const Result<std::vector<float>> got = reader->read<float>("from_the_future");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_NE(got.status().message().find("4242"), std::string::npos);
  EXPECT_NE(got.status().message().find("registered"), std::string::npos);

  // Internal callers get the same single source of truth.
  EXPECT_THROW(h5::make_filter(static_cast<h5::FilterId>(4242)), std::invalid_argument);
  EXPECT_TRUE(h5::CodecRegistry::instance().contains(
      static_cast<std::uint32_t>(h5::FilterId::kSz)));

  reader = Reader();
  std::filesystem::remove(path);
}

}  // namespace

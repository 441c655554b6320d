// Integration of the fixed-rate ZFP filter with the h5lite parallel
// write paths, plus double-precision coverage of the engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/engine.h"
#include "data/workloads.h"
#include "h5/dataset_io.h"
#include "zfp/zfp.h"
#include "support/read_oracle.h"

namespace pcw {
namespace {

std::string temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("pcw_zfpfilter_" + tag + ".pcw5"))
      .string();
}

class Cleanup {
 public:
  explicit Cleanup(std::string p) : path_(std::move(p)) {}
  ~Cleanup() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ZfpFilter, EncodeSizeIsExactlyPredictable) {
  zfp::Params zp;
  zp.rate_bits = 8;
  h5::ZfpFilter filter(zp);
  const sz::Dims dims = sz::Dims::make_3d(16, 16, 16);
  const auto field = data::make_nyx_field(dims, data::NyxField::kTemperature, 3);
  const std::span<const std::uint8_t> raw{
      reinterpret_cast<const std::uint8_t*>(field.data()), field.size() * 4};
  const auto blob = filter.encode(raw, h5::DataType::kFloat32, dims);
  EXPECT_EQ(blob.size(), zfp::compressed_size(dims, zp));
}

TEST(ZfpFilter, DecodeRoundTrips) {
  zfp::Params zp;
  zp.rate_bits = 16;
  h5::ZfpFilter filter(zp);
  const sz::Dims dims = sz::Dims::make_3d(16, 16, 16);
  const auto field = data::make_nyx_field(dims, data::NyxField::kVelocityY, 5);
  const std::span<const std::uint8_t> raw{
      reinterpret_cast<const std::uint8_t*>(field.data()), field.size() * 4};
  const auto blob = filter.encode(raw, h5::DataType::kFloat32, dims);
  const auto dec = filter.decode(blob, h5::DataType::kFloat32, field.size());
  ASSERT_EQ(dec.size(), raw.size());
  const auto* rec = reinterpret_cast<const float*>(dec.data());
  float lo = field[0], hi = field[0];
  for (const float v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double tol = 0.02 * (static_cast<double>(hi) - static_cast<double>(lo));
  for (std::size_t i = 0; i < field.size(); ++i) {
    ASSERT_NEAR(rec[i], field[i], tol);
  }
}

TEST(ZfpFilter, RejectsNonFloat32) {
  h5::ZfpFilter filter(zfp::Params{});
  const std::vector<std::uint8_t> raw(64 * 8);
  EXPECT_THROW(filter.encode(raw, h5::DataType::kFloat64, sz::Dims::make_3d(4, 4, 4)),
               std::invalid_argument);
  EXPECT_THROW(filter.decode(raw, h5::DataType::kFloat64, 64), std::invalid_argument);
}

TEST(ZfpFilter, FactoryBuildsIt) {
  zfp::Params zp;
  zp.rate_bits = 12;
  const auto filter = h5::make_filter(h5::FilterId::kZfp, {}, zp);
  EXPECT_EQ(filter->id(), h5::FilterId::kZfp);
}

TEST(ZfpFilter, ParallelFilteredCollectiveWriteReadsBack) {
  const int P = 4;
  const sz::Dims local = sz::Dims::make_3d(16, 16, 16);
  const sz::Dims global = sz::Dims::make_3d(64, 16, 16);
  Cleanup cleanup(temp_path("parallel"));
  auto file = h5::File::create(cleanup.path());
  std::vector<std::vector<float>> blocks(P);
  for (int r = 0; r < P; ++r) {
    blocks[static_cast<std::size_t>(r)] =
        data::make_nyx_field(local, data::NyxField::kBaryonDensity,
                             100 + static_cast<std::uint64_t>(r));
  }
  zfp::Params zp;
  zp.rate_bits = 16;
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    h5::ZfpFilter filter(zp);
    const auto stats = h5::write_filtered_collective<float>(
        comm, *file, "density", blocks[static_cast<std::size_t>(comm.rank())], local,
        global, filter);
    // Fixed rate: every rank's partition has the identical stored size.
    EXPECT_EQ(stats.compressed_bytes, zfp::compressed_size(local, zp));
    file->close_collective(comm);
  });

  auto rf = h5::File::open(cleanup.path());
  const auto* desc = rf->find_dataset("density");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->filter, h5::FilterId::kZfp);
  const auto full = testsupport::read_dataset<float>(*rf, "density");
  for (int r = 0; r < P; ++r) {
    const auto& orig = blocks[static_cast<std::size_t>(r)];
    float lo = orig[0], hi = orig[0];
    for (const float v : orig) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double tol = 0.02 * (static_cast<double>(hi) - static_cast<double>(lo));
    const std::size_t off = static_cast<std::size_t>(r) * local.count();
    for (std::size_t i = 0; i < orig.size(); ++i) {
      ASSERT_NEAR(full[off + i], orig[i], tol) << "rank " << r;
    }
  }
}

TEST(EngineF64, DoublePrecisionFieldsRoundTrip) {
  // The engine is templated on element type; exercise the f64 path end to
  // end (prediction, planning, overlap, metadata, read-back).
  const int P = 4;
  const sz::Dims global = sz::Dims::make_3d(32, 32, 32);
  const auto dec = data::decompose(global, P);
  std::vector<std::vector<double>> blocks(P);
  for (int r = 0; r < P; ++r) {
    std::vector<float> f32(dec.local.count());
    data::fill_nyx_field(f32, dec.local, dec.origin_of(r), global,
                         data::NyxField::kTemperature, 11);
    blocks[static_cast<std::size_t>(r)].assign(f32.begin(), f32.end());
  }
  Cleanup cleanup(temp_path("f64"));
  auto file = h5::File::create(cleanup.path());
  core::EngineConfig cfg;
  cfg.mode = core::WriteMode::kOverlapReorder;
  mpi::Runtime::run(P, [&](mpi::Comm& comm) {
    core::FieldSpec<double> field;
    field.name = "temperature64";
    field.local = blocks[static_cast<std::size_t>(comm.rank())];
    field.local_dims = dec.local;
    field.global_dims = global;
    field.params.error_bound = 1e2;
    const auto rep = core::write_fields<double>(comm, *file, {&field, 1}, cfg);
    EXPECT_GT(rep.compressed_bytes, 0u);
    file->close_collective(comm);
  });
  auto rf = h5::File::open(cleanup.path());
  const auto full = testsupport::read_dataset<double>(*rf, "temperature64");
  for (int r = 0; r < P; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * dec.local.count();
    for (std::size_t i = 0; i < dec.local.count(); ++i) {
      ASSERT_NEAR(full[off + i], blocks[static_cast<std::size_t>(r)][i], 1e2);
    }
  }
}

TEST(EngineF64, MixedPrecisionDatasetsCoexistInOneFile) {
  Cleanup cleanup(temp_path("mixed"));
  auto file = h5::File::create(cleanup.path());
  core::EngineConfig cfg;
  const sz::Dims dims = sz::Dims::make_3d(16, 16, 16);
  const auto f32 = data::make_nyx_field(dims, data::NyxField::kBaryonDensity, 13);
  const std::vector<double> f64(f32.begin(), f32.end());
  mpi::Runtime::run(1, [&](mpi::Comm& comm) {
    core::FieldSpec<float> a;
    a.name = "rho32";
    a.local = f32;
    a.local_dims = dims;
    a.global_dims = dims;
    a.params.error_bound = 0.2;
    core::write_fields<float>(comm, *file, {&a, 1}, cfg);
    core::FieldSpec<double> b;
    b.name = "rho64";
    b.local = f64;
    b.local_dims = dims;
    b.global_dims = dims;
    b.params.error_bound = 0.2;
    core::write_fields<double>(comm, *file, {&b, 1}, cfg);
    file->close_collective(comm);
  });
  auto rf = h5::File::open(cleanup.path());
  EXPECT_EQ(rf->datasets().size(), 2u);
  EXPECT_THROW(testsupport::read_dataset<double>(*rf, "rho32"), std::runtime_error);
  const auto back32 = testsupport::read_dataset<float>(*rf, "rho32");
  const auto back64 = testsupport::read_dataset<double>(*rf, "rho64");
  for (std::size_t i = 0; i < f32.size(); ++i) {
    ASSERT_NEAR(back32[i], f32[i], 0.2);
    ASSERT_NEAR(back64[i], f64[i], 0.2);
  }
}

}  // namespace
}  // namespace pcw

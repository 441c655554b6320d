#include "h5/filter.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "h5/codec_registry.h"

namespace pcw::h5 {

void Filter::decode_region(std::span<const std::uint8_t> blob, DataType dtype,
                           const sz::Dims& local_dims, const sz::Region& region,
                           unsigned threads, sz::RegionDecodeStats* stats,
                           std::span<std::uint8_t> out) const {
  (void)threads;
  sz::validate_region(region, local_dims);
  const std::size_t esize = element_size(dtype);
  if (out.size() != region.count() * esize) {
    throw std::invalid_argument("h5: region buffer size mismatch");
  }
  const std::vector<std::uint8_t> full =
      decode(blob, dtype, sz::element_count(local_dims));
  sz::for_each_region_row(region, local_dims,
                          [&](std::size_t g, std::size_t len, std::size_t o) {
                            std::memcpy(out.data() + o * esize, full.data() + g * esize,
                                        len * esize);
                          });
  if (stats != nullptr) {
    stats->blocks_total = 1;
    stats->blocks_decoded = 1;
    stats->used_block_index = false;
  }
}

std::vector<std::uint8_t> NullFilter::decode(std::span<const std::uint8_t> blob,
                                             DataType dtype,
                                             std::uint64_t expect_elems) const {
  if (blob.size() != expect_elems * element_size(dtype)) {
    throw std::runtime_error("h5: null-filter size mismatch");
  }
  return {blob.begin(), blob.end()};
}

std::vector<std::uint8_t> SzFilter::encode(std::span<const std::uint8_t> raw,
                                           DataType dtype, const sz::Dims& dims) const {
  switch (dtype) {
    case DataType::kFloat32: {
      if (raw.size() != dims.count() * sizeof(float)) {
        throw std::invalid_argument("h5: sz-filter f32 size mismatch");
      }
      std::span<const float> data{reinterpret_cast<const float*>(raw.data()), dims.count()};
      return sz::compress<float>(data, dims, params_);
    }
    case DataType::kFloat64: {
      if (raw.size() != dims.count() * sizeof(double)) {
        throw std::invalid_argument("h5: sz-filter f64 size mismatch");
      }
      std::span<const double> data{reinterpret_cast<const double*>(raw.data()), dims.count()};
      return sz::compress<double>(data, dims, params_);
    }
    case DataType::kBytes:
      throw std::invalid_argument("h5: sz filter requires a float type");
  }
  throw std::invalid_argument("h5: unknown dtype");
}

std::vector<std::uint8_t> SzFilter::decode(std::span<const std::uint8_t> blob,
                                           DataType dtype,
                                           std::uint64_t expect_elems) const {
  switch (dtype) {
    case DataType::kFloat32: {
      std::vector<float> vals =
          sz::decompress<float>(blob, nullptr, params_.threads, params_.verify);
      if (vals.size() != expect_elems) throw std::runtime_error("h5: sz element count");
      std::vector<std::uint8_t> out(vals.size() * sizeof(float));
      std::memcpy(out.data(), vals.data(), out.size());
      return out;
    }
    case DataType::kFloat64: {
      std::vector<double> vals =
          sz::decompress<double>(blob, nullptr, params_.threads, params_.verify);
      if (vals.size() != expect_elems) throw std::runtime_error("h5: sz element count");
      std::vector<std::uint8_t> out(vals.size() * sizeof(double));
      std::memcpy(out.data(), vals.data(), out.size());
      return out;
    }
    case DataType::kBytes:
      throw std::invalid_argument("h5: sz filter requires a float type");
  }
  throw std::invalid_argument("h5: unknown dtype");
}

namespace {

template <typename T>
std::span<T> elements_of(std::span<std::uint8_t> bytes) {
  if (bytes.size() % sizeof(T) != 0 ||
      reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) != 0) {
    throw std::invalid_argument("h5: region buffer size or alignment mismatch");
  }
  return {reinterpret_cast<T*>(bytes.data()), bytes.size() / sizeof(T)};
}

}  // namespace

void SzFilter::decode_region(std::span<const std::uint8_t> blob, DataType dtype,
                             const sz::Dims& local_dims, const sz::Region& region,
                             unsigned threads, sz::RegionDecodeStats* stats,
                             std::span<std::uint8_t> out) const {
  switch (dtype) {
    case DataType::kFloat32:
      sz::decompress_region_into<float>(blob, region, elements_of<float>(out), threads,
                                        stats, params_.verify, &local_dims);
      return;
    case DataType::kFloat64:
      sz::decompress_region_into<double>(blob, region, elements_of<double>(out), threads,
                                         stats, params_.verify, &local_dims);
      return;
    case DataType::kBytes:
      throw std::invalid_argument("h5: sz filter requires a float type");
  }
  throw std::invalid_argument("h5: unknown dtype");
}

std::optional<sz::Dims> SzFilter::stored_dims(std::span<const std::uint8_t> blob) const {
  return sz::inspect(blob).dims;
}

std::vector<std::uint8_t> ZfpFilter::encode(std::span<const std::uint8_t> raw,
                                            DataType dtype, const sz::Dims& dims) const {
  if (dtype != DataType::kFloat32) {
    throw std::invalid_argument("h5: zfp filter supports f32 only");
  }
  if (raw.size() != dims.count() * sizeof(float)) {
    throw std::invalid_argument("h5: zfp-filter f32 size mismatch");
  }
  std::span<const float> data{reinterpret_cast<const float*>(raw.data()), dims.count()};
  return zfp::compress(data, dims, params_);
}

std::vector<std::uint8_t> ZfpFilter::decode(std::span<const std::uint8_t> blob,
                                            DataType dtype,
                                            std::uint64_t expect_elems) const {
  if (dtype != DataType::kFloat32) {
    throw std::invalid_argument("h5: zfp filter supports f32 only");
  }
  const std::vector<float> vals = zfp::decompress(blob);
  if (vals.size() != expect_elems) throw std::runtime_error("h5: zfp element count");
  std::vector<std::uint8_t> out(vals.size() * sizeof(float));
  std::memcpy(out.data(), vals.data(), out.size());
  return out;
}

std::unique_ptr<Filter> make_filter(FilterId id, const sz::Params& sz_params,
                                    const zfp::Params& zfp_params) {
  FilterParams params;
  params.sz = sz_params;
  params.zfp = zfp_params;
  return CodecRegistry::instance().make(static_cast<std::uint32_t>(id), params);
}

}  // namespace pcw::h5

// Whole-partition read oracles. The library reads every dataset through
// one path (plan -> pread -> decode the selected blocks in place); these
// fetch each stored partition with their own slot + overflow stitch,
// decode it whole with Filter::decode (or sz::decompress along a series
// chain) and copy it into place, so tests can pin that path against an
// independent reconstruction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "h5/file.h"
#include "h5/filter.h"
#include "sz/compressor.h"

namespace pcw::testsupport {

/// A partition's stored payload: its slot, then its overflow tail.
inline std::vector<std::uint8_t> stored_payload(const h5::File& file,
                                                const h5::PartitionRecord& part) {
  std::vector<std::uint8_t> payload =
      file.pread(part.file_offset, std::min(part.actual_bytes, part.reserved_bytes));
  const std::vector<std::uint8_t> tail = file.pread(part.overflow_offset, part.overflow_bytes);
  payload.insert(payload.end(), tail.begin(), tail.end());
  return payload;
}

/// The whole dataset as the flattened global array: every partition
/// (slot + overflow) decoded whole by its filter, undoing any filter.
template <typename T>
std::vector<T> read_dataset(const h5::File& file, const std::string& name,
                            const sz::Params& sz_params = {}) {
  const h5::DatasetDesc* desc = file.find_dataset(name);
  if (desc == nullptr) throw std::invalid_argument("h5: no dataset named " + name);
  if (desc->dtype != h5::dtype_of<T>()) throw std::runtime_error("h5: dtype mismatch");

  const std::uint64_t total = sz::element_count(desc->global_dims);
  std::vector<T> out(total);

  if (desc->layout == h5::Layout::kContiguous) {
    if (desc->nbytes != total * sizeof(T)) throw std::runtime_error("h5: extent mismatch");
    const auto bytes = file.pread(desc->file_offset, desc->nbytes);
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  const auto filter = h5::make_filter(desc->filter, sz_params);
  for (std::size_t p = 0; p < desc->partitions.size(); ++p) {
    const h5::PartitionRecord& part = desc->partitions[p];
    const auto payload = stored_payload(file, part);
    const auto raw = filter->decode(payload, desc->dtype, part.elem_count);
    if (part.elem_offset + part.elem_count > total) {
      throw std::runtime_error("h5: partition exceeds dataset extent");
    }
    std::memcpy(out.data() + part.elem_offset, raw.data(), raw.size());
  }
  return out;
}

/// Step `step` of series `base`, chained from the nearest keyframe with
/// whole-partition decodes: each link decodes every partition in full
/// against the previous link's reconstruction.
template <typename T>
std::vector<T> read_series_step(const h5::File& file, const std::string& base,
                                std::uint32_t step) {
  std::vector<const h5::DatasetDesc*> chain{file.find_series(base, step)};
  while (chain.front() != nullptr && !chain.front()->is_keyframe()) {
    chain.insert(chain.begin(), file.find_series(base, chain.front()->series_ref_step));
  }
  if (chain.front() == nullptr) throw std::runtime_error("oracle: missing series step");
  std::vector<T> full;
  for (const h5::DatasetDesc* desc : chain) {
    std::vector<T> next(sz::element_count(desc->global_dims));
    for (const h5::PartitionRecord& part : desc->partitions) {
      const auto payload = stored_payload(file, part);
      const std::span<const T> prev =
          full.empty() ? std::span<const T>{}
                       : std::span<const T>(full.data() + part.elem_offset, part.elem_count);
      const std::vector<T> vals = sz::decompress<T>(payload, prev);
      std::memcpy(next.data() + part.elem_offset, vals.data(), vals.size() * sizeof(T));
    }
    full = std::move(next);
  }
  return full;
}

}  // namespace pcw::testsupport

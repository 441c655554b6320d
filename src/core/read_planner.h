// Per-rank read planning: turns each rank's restart/analysis requests
// into partition selections before any payload byte moves.
//
// Planning is pure metadata work over the parsed dataset table, so every
// rank plans independently with no communication — the read-side mirror
// of the write planner's "identical offsets from identical predictions"
// property. The plans drive core::read_fields' per-field read loop.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "h5/dataset_io.h"
#include "h5/file.h"
#include "sz/dims.h"

namespace pcw::core {

/// One field this rank wants back.
struct ReadSpec {
  std::string name;
  /// Hyperslab in the dataset's global extents; nullopt reads everything.
  std::optional<sz::Region> region;
};

/// A planned field read: the resolved dataset plus its clipped selection.
struct FieldReadPlan {
  const h5::DatasetDesc* desc = nullptr;
  h5::RegionSelection selection;
  std::uint64_t payload_bytes = 0;  // stored bytes this plan will fetch
};

/// Resolves every spec against the file's dataset table. Throws
/// std::invalid_argument on unknown datasets or bad regions.
std::vector<FieldReadPlan> plan_read(const h5::File& file,
                                     std::span<const ReadSpec> specs);

/// The hyperslab rank `rank` of `nranks` owns on restart: the global box
/// cut into contiguous slabs along its slowest-varying non-unit axis,
/// remainder spread over the leading ranks. Ranks beyond the axis extent
/// receive an empty region — a valid request that reads nothing — so a
/// restart may use more ranks than the axis has planes.
sz::Region restart_region(const sz::Dims& global, int rank, int nranks);

}  // namespace pcw::core

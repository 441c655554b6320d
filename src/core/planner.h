// Write planner (§III-D, Fig. 3): every layout decision of the predictive
// write path, shared by the engine (engine.h) and the timing simulator
// (timing_engine.h). Every rank plans from the *same* all-gathered
// predictions, so all ranks derive identical offsets with no further
// communication — the property that unlocks independent async writes.
#pragma once

#include <cstdint>
#include <vector>

namespace pcw::core {

/// Granularity of every slot and overflow tail: offsets and sizes are
/// multiples of it relative to their region's base (the base itself is
/// wherever the file's end was when the region was allocated).
inline constexpr std::uint64_t kSlotAlignment = 64;

/// The ratio model's estimate as the byte count a slot is planned from:
/// `bit_rate` bits per element over `elem_count` elements, truncated to
/// whole bytes, +1 to guard the zero edge.
std::uint64_t predicted_bytes_for(double bit_rate, std::uint64_t elem_count);

struct PartitionPrediction {
  std::uint64_t predicted_bytes = 0;
  double predicted_ratio = 1.0;   // drives the Eq. (3) extra-space boost
};

struct PartitionSlot {
  std::uint64_t offset = 0;          // relative to the layout base
  std::uint64_t reserved_bytes = 0;  // predicted * effective r_space, aligned
};

struct WritePlan {
  std::uint64_t total_bytes = 0;
  std::vector<std::vector<PartitionSlot>> slots;  // [field][rank]
};

/// Builds a field-major layout from predictions[field][rank]: all of
/// field 0's partitions (rank order), then field 1's, ... Slot sizes are
/// predicted_bytes scaled by the effective extra-space ratio (Eq. 3), +1,
/// rounded up to kSlotAlignment.
WritePlan plan_write(const std::vector<std::vector<PartitionPrediction>>& predictions,
                     double rspace);

struct PartitionOverflow {
  std::uint64_t in_slot_bytes = 0;  // head of the blob written into the slot
  std::uint64_t tail_bytes = 0;     // excess appended after the main layout
  std::uint64_t tail_offset = 0;    // relative to the overflow base; 0 if no tail
};

struct OverflowPlan {
  std::uint64_t total_bytes = 0;  // aligned size of the tail region
  std::uint64_t tail_bytes = 0;   // sum of all tails
  int partitions = 0;             // partitions with a tail
  std::vector<std::vector<PartitionOverflow>> parts;  // [field][rank]
  std::vector<std::uint64_t> rank_tail_bytes;         // [rank], one contiguous append
};

/// Splits each partition's actual_bytes[field][rank] into the part that
/// fits its slot and an overflow tail. Tails are laid out rank-major: all
/// of rank 0's tails (field order), then rank 1's, ..., each aligned to
/// kSlotAlignment, so a rank's tails are adjacent.
OverflowPlan plan_overflow(const WritePlan& plan,
                           const std::vector<std::vector<std::uint64_t>>& actual_bytes);

}  // namespace pcw::core

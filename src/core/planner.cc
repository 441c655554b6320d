#include "core/planner.h"

#include <algorithm>
#include <stdexcept>

#include "model/extra_space.h"

namespace pcw::core {
namespace {

std::uint64_t align_up(std::uint64_t v) {
  return (v + kSlotAlignment - 1) / kSlotAlignment * kSlotAlignment;
}

}  // namespace

std::uint64_t predicted_bytes_for(double bit_rate, std::uint64_t elem_count) {
  return static_cast<std::uint64_t>(bit_rate / 8.0 * static_cast<double>(elem_count)) + 1;
}

WritePlan plan_write(const std::vector<std::vector<PartitionPrediction>>& predictions,
                     double rspace) {
  WritePlan plan;
  plan.slots.resize(predictions.size());
  std::uint64_t cursor = 0;
  for (std::size_t f = 0; f < predictions.size(); ++f) {
    plan.slots[f].resize(predictions[f].size());
    if (!predictions[f].empty() && predictions[f].size() != predictions[0].size()) {
      throw std::invalid_argument("planner: ragged prediction matrix");
    }
    for (std::size_t r = 0; r < predictions[f].size(); ++r) {
      const auto& pred = predictions[f][r];
      const double reserved = model::reserved_bytes(
          static_cast<double>(pred.predicted_bytes), pred.predicted_ratio, rspace);
      PartitionSlot& slot = plan.slots[f][r];
      slot.offset = cursor;
      slot.reserved_bytes = align_up(static_cast<std::uint64_t>(reserved) + 1);
      cursor += slot.reserved_bytes;
    }
  }
  plan.total_bytes = cursor;
  return plan;
}

OverflowPlan plan_overflow(const WritePlan& plan,
                           const std::vector<std::vector<std::uint64_t>>& actual_bytes) {
  const std::size_t nfields = plan.slots.size();
  const std::size_t nranks = nfields == 0 ? 0 : plan.slots[0].size();
  if (actual_bytes.size() != nfields ||
      std::any_of(actual_bytes.begin(), actual_bytes.end(),
                  [&](const auto& field) { return field.size() != nranks; })) {
    throw std::invalid_argument("planner: actual sizes do not match the plan");
  }
  OverflowPlan out;
  out.parts.assign(nfields, std::vector<PartitionOverflow>(nranks));
  out.rank_tail_bytes.assign(nranks, 0);
  // Rank-major: all of one rank's tails are adjacent, so a rank appends
  // its entire overflow with a single contiguous write.
  for (std::size_t r = 0; r < nranks; ++r) {
    for (std::size_t f = 0; f < nfields; ++f) {
      PartitionOverflow& part = out.parts[f][r];
      part.in_slot_bytes = std::min(actual_bytes[f][r], plan.slots[f][r].reserved_bytes);
      part.tail_bytes = actual_bytes[f][r] - part.in_slot_bytes;
      if (part.tail_bytes == 0) continue;
      part.tail_offset = out.total_bytes;
      out.total_bytes += align_up(part.tail_bytes);
      out.tail_bytes += part.tail_bytes;
      out.rank_tail_bytes[r] += part.tail_bytes;
      ++out.partitions;
    }
  }
  return out;
}

}  // namespace pcw::core

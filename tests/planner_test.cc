#include <gtest/gtest.h>

#include "core/planner.h"

namespace pcw::core {
namespace {

TEST(Planner, SlotsAreDisjointAndOrdered) {
  std::vector<std::vector<PartitionPrediction>> preds(3);
  for (int f = 0; f < 3; ++f) {
    for (int r = 0; r < 4; ++r) {
      preds[static_cast<std::size_t>(f)].push_back(
          {static_cast<std::uint64_t>(1000 + f * 100 + r * 10), 10.0});
    }
  }
  const auto plan = plan_write(preds, 1.25);
  std::uint64_t cursor = 0;
  for (const auto& field : plan.slots) {
    for (const auto& slot : field) {
      EXPECT_EQ(slot.offset, cursor);
      EXPECT_GT(slot.reserved_bytes, 0u);
      cursor += slot.reserved_bytes;
    }
  }
  EXPECT_EQ(plan.total_bytes, cursor);
}

TEST(Planner, ReservedAppliesRspace) {
  std::vector<std::vector<PartitionPrediction>> preds{{{1024, 10.0}}};
  const auto plan = plan_write(preds, 1.5);
  // 1024 * 1.5 = 1536 is already aligned; the +1 guard pushes it to the
  // next 64-byte boundary.
  EXPECT_EQ(plan.slots[0][0].reserved_bytes, 1600u);
}

TEST(Planner, Eq3BoostAboveRatio32) {
  std::vector<std::vector<PartitionPrediction>> preds{{{1024, 64.0}}};
  const auto plan = plan_write(preds, 1.25);
  // Effective r = min(2, 1 + 0.25*4) = 2.0: 2048, +1 guard, aligned up.
  EXPECT_EQ(plan.slots[0][0].reserved_bytes, 2112u);
}

TEST(Planner, AlignmentRespected) {
  std::vector<std::vector<PartitionPrediction>> preds{{{100, 5.0}, {77, 5.0}}};
  const auto plan = plan_write(preds, 1.1);
  for (const auto& slot : plan.slots[0]) {
    EXPECT_EQ(slot.offset % kSlotAlignment, 0u);
    EXPECT_EQ(slot.reserved_bytes % kSlotAlignment, 0u);
  }
}

TEST(Planner, DeterministicAcrossCalls) {
  std::vector<std::vector<PartitionPrediction>> preds(2,
                                                      {{500, 8.0}, {700, 40.0}});
  const auto a = plan_write(preds, 1.25);
  const auto b = plan_write(preds, 1.25);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  for (std::size_t f = 0; f < a.slots.size(); ++f) {
    for (std::size_t r = 0; r < a.slots[f].size(); ++r) {
      EXPECT_EQ(a.slots[f][r].offset, b.slots[f][r].offset);
      EXPECT_EQ(a.slots[f][r].reserved_bytes, b.slots[f][r].reserved_bytes);
    }
  }
}

TEST(Planner, FieldMajorLayout) {
  // All of field 0's slots precede field 1's.
  std::vector<std::vector<PartitionPrediction>> preds(2,
                                                      std::vector<PartitionPrediction>(
                                                          3, {100, 4.0}));
  const auto plan = plan_write(preds, 1.1);
  EXPECT_LT(plan.slots[0][2].offset, plan.slots[1][0].offset);
}

TEST(Planner, RaggedMatrixRejected) {
  std::vector<std::vector<PartitionPrediction>> preds{
      {{100, 4.0}, {100, 4.0}},
      {{100, 4.0}},
  };
  EXPECT_THROW(plan_write(preds, 1.25), std::invalid_argument);
}

TEST(Planner, EmptyPlanIsEmpty) {
  const auto plan = plan_write({}, 1.25);
  EXPECT_EQ(plan.total_bytes, 0u);
  EXPECT_TRUE(plan.slots.empty());
}

TEST(Planner, HigherRspaceMoreStorage) {
  std::vector<std::vector<PartitionPrediction>> preds(
      4, std::vector<PartitionPrediction>(16, {10000, 12.0}));
  const auto lo = plan_write(preds, 1.1);
  const auto hi = plan_write(preds, 1.43);
  EXPECT_GT(hi.total_bytes, lo.total_bytes);
  EXPECT_NEAR(static_cast<double>(hi.total_bytes) / static_cast<double>(lo.total_bytes),
              1.43 / 1.1, 0.02);
}

/// A one-row-per-field plan whose slots hold exactly `reserved[f][r]`
/// bytes, for exercising plan_overflow with small numbers.
WritePlan fixed_plan(const std::vector<std::vector<std::uint64_t>>& reserved) {
  WritePlan plan;
  for (const auto& field : reserved) {
    plan.slots.emplace_back();
    for (const std::uint64_t bytes : field) {
      plan.slots.back().push_back({plan.total_bytes, bytes});
      plan.total_bytes += bytes;
    }
  }
  return plan;
}

TEST(Planner, PredictedBytesTruncatesAndGuardsZero) {
  EXPECT_EQ(predicted_bytes_for(0.0, 1000), 1u);
  EXPECT_EQ(predicted_bytes_for(2.0, 1000), 251u);   // 2 bits x 1000 = 250 B, +1
  EXPECT_EQ(predicted_bytes_for(1.3, 7), 2u);        // 1.1375 B truncates to 1, +1
}

TEST(Planner, OverflowSplitsAtTheSlot) {
  const auto plan = fixed_plan({{100, 100}, {100, 100}});
  const auto ovf = plan_overflow(plan, {{60, 100}, {130, 250}});
  EXPECT_EQ(ovf.parts[0][0].in_slot_bytes, 60u);
  EXPECT_EQ(ovf.parts[0][0].tail_bytes, 0u);
  EXPECT_EQ(ovf.parts[0][1].in_slot_bytes, 100u);   // exactly full: no tail
  EXPECT_EQ(ovf.parts[0][1].tail_bytes, 0u);
  EXPECT_EQ(ovf.parts[1][0].in_slot_bytes, 100u);
  EXPECT_EQ(ovf.parts[1][0].tail_bytes, 30u);
  EXPECT_EQ(ovf.parts[1][1].tail_bytes, 150u);
  EXPECT_EQ(ovf.partitions, 2);
  EXPECT_EQ(ovf.tail_bytes, 180u);
  EXPECT_EQ(ovf.rank_tail_bytes, (std::vector<std::uint64_t>{30, 150}));
}

TEST(Planner, OverflowTailsAreRankMajorAndSkipEmpty) {
  // Actual sizes 100 over 100-byte slots leave tails {0, 100, 0} for
  // field 0 and {50, 0, 0} for field 1.
  const auto plan = fixed_plan({{100, 100, 100}, {100, 100, 100}});
  const auto ovf = plan_overflow(plan, {{100, 200, 100}, {150, 100, 100}});
  // Rank-major: rank 0's tail (field 1) precedes rank 1's (field 0).
  EXPECT_EQ(ovf.parts[1][0].tail_offset, 0u);
  EXPECT_EQ(ovf.parts[0][1].tail_offset, kSlotAlignment);
  EXPECT_EQ(ovf.total_bytes, kSlotAlignment + 128u);   // 50 -> 64, 100 -> 128
  EXPECT_EQ(ovf.parts[0][0].tail_offset, 0u);
  EXPECT_EQ(ovf.parts[0][2].tail_offset, 0u);
}

TEST(Planner, OverflowRankTailsAreAdjacent) {
  // Two fields overflowing on the same rank must land back to back so the
  // rank can append them with one write.
  const auto plan = fixed_plan({{64, 64}, {64, 64}, {64, 64}});
  const auto ovf = plan_overflow(plan, {{74, 64}, {84, 64}, {64, 94}});
  EXPECT_EQ(ovf.parts[0][0].tail_offset, 0u);
  EXPECT_EQ(ovf.parts[1][0].tail_offset, 64u);   // adjacent to rank 0's first tail
  EXPECT_EQ(ovf.parts[2][1].tail_offset, 128u);
  EXPECT_EQ(ovf.total_bytes, 192u);
}

TEST(Planner, OverflowShapeMustMatchPlan) {
  const auto plan = fixed_plan({{64, 64}});
  EXPECT_THROW(plan_overflow(plan, {}), std::invalid_argument);
  EXPECT_THROW(plan_overflow(plan, {{64}}), std::invalid_argument);
}

TEST(Planner, OverflowNoEntries) {
  const auto ovf = plan_overflow(plan_write({}, 1.25), {});
  EXPECT_TRUE(ovf.parts.empty());
  EXPECT_EQ(ovf.total_bytes, 0u);
  EXPECT_EQ(ovf.partitions, 0);
}

}  // namespace
}  // namespace pcw::core

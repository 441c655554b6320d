#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/scheduler.h"
#include "util/rng.h"

namespace pcw::core {
namespace {

std::vector<int> brute_force_best(std::span<const ScheduledTask> tasks) {
  std::vector<int> perm = identity_order(tasks.size());
  std::vector<int> best = perm;
  double best_time = pipeline_makespan(tasks, perm);
  while (std::next_permutation(perm.begin(), perm.end())) {
    const double t = pipeline_makespan(tasks, perm);
    if (t < best_time) {
      best_time = t;
      best = perm;
    }
  }
  return best;
}

TEST(Scheduler, MakespanHandComputed) {
  // Two fields: comp (1, 2), write (4, 1).
  // Order [0,1]: tc=1, tw=1+4=5; tc=3, tw=1+max(3,5)=6.
  // Order [1,0]: tc=2, tw=2+1=3; tc=3, tw=4+max(3,3)=7.
  const std::vector<ScheduledTask> tasks{{1, 4}, {2, 1}};
  const std::vector<int> a{0, 1}, b{1, 0};
  EXPECT_DOUBLE_EQ(pipeline_makespan(tasks, a), 6.0);
  EXPECT_DOUBLE_EQ(pipeline_makespan(tasks, b), 7.0);
}

TEST(Scheduler, MakespanLowerBounds) {
  // TIME(q) >= total compression + last write, and >= total write + first
  // compression.
  util::Rng rng(1);
  std::vector<ScheduledTask> tasks(6);
  for (auto& t : tasks) {
    t.comp_seconds = rng.uniform(0.1, 2.0);
    t.write_seconds = rng.uniform(0.1, 2.0);
  }
  const auto order = identity_order(tasks.size());
  double comp_sum = 0.0, write_sum = 0.0;
  for (const auto& t : tasks) {
    comp_sum += t.comp_seconds;
    write_sum += t.write_seconds;
  }
  const double makespan = pipeline_makespan(tasks, order);
  EXPECT_GE(makespan, comp_sum + tasks.back().write_seconds - 1e-12);
  EXPECT_GE(makespan, tasks.front().comp_seconds + write_sum - 1e-12);
}

TEST(Scheduler, OptimizerNeverWorseThanIdentity) {
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(9);
    std::vector<ScheduledTask> tasks(n);
    for (auto& t : tasks) {
      t.comp_seconds = rng.uniform(0.01, 3.0);
      t.write_seconds = rng.uniform(0.01, 3.0);
    }
    const auto opt = optimize_order(tasks);
    EXPECT_LE(pipeline_makespan(tasks, opt),
              pipeline_makespan(tasks, identity_order(n)) + 1e-12);
  }
}

TEST(Scheduler, OptimizerIsPermutation) {
  util::Rng rng(3);
  std::vector<ScheduledTask> tasks(8);
  for (auto& t : tasks) {
    t.comp_seconds = rng.uniform(0.1, 1.0);
    t.write_seconds = rng.uniform(0.1, 1.0);
  }
  auto order = optimize_order(tasks);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, identity_order(tasks.size()));
}

TEST(Scheduler, TwoFieldsOptimal) {
  // For n=2 the insertion heuristic explores both orders: always optimal.
  util::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<ScheduledTask> tasks(2);
    for (auto& t : tasks) {
      t.comp_seconds = rng.uniform(0.01, 2.0);
      t.write_seconds = rng.uniform(0.01, 2.0);
    }
    const auto opt = optimize_order(tasks);
    const auto best = brute_force_best(tasks);
    EXPECT_NEAR(pipeline_makespan(tasks, opt), pipeline_makespan(tasks, best), 1e-12);
  }
}

TEST(Scheduler, NearOptimalUpToSixFields) {
  // The greedy insertion is a heuristic; across random instances it must
  // stay within a few percent of the brute-force optimum.
  util::Rng rng(5);
  double worst_gap = 0.0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 3 + rng.uniform_index(4);  // 3..6
    std::vector<ScheduledTask> tasks(n);
    for (auto& t : tasks) {
      t.comp_seconds = rng.uniform(0.05, 1.5);
      t.write_seconds = rng.uniform(0.05, 1.5);
    }
    const double opt = pipeline_makespan(tasks, optimize_order(tasks));
    const double best = pipeline_makespan(tasks, brute_force_best(tasks));
    worst_gap = std::max(worst_gap, (opt - best) / best);
  }
  EXPECT_LT(worst_gap, 0.10);
}

TEST(Scheduler, PaperExampleSmallerWriteCompressedLater) {
  // §III-A: "the data with smaller compressed size are compressed later"
  // when writes dominate — the big write should lead.
  const std::vector<ScheduledTask> tasks{{1.0, 0.5}, {1.0, 5.0}};
  const auto order = optimize_order(tasks);
  EXPECT_EQ(order.front(), 1);  // long-write field first
}

TEST(Scheduler, CompressionTimeOrderInvariant) {
  // Total compression time is fixed; only the write tail varies. The
  // makespan difference between any two orders is bounded by total write.
  util::Rng rng(6);
  std::vector<ScheduledTask> tasks(5);
  double write_sum = 0.0;
  for (auto& t : tasks) {
    t.comp_seconds = rng.uniform(0.1, 1.0);
    t.write_seconds = rng.uniform(0.1, 1.0);
    write_sum += t.write_seconds;
  }
  std::vector<int> perm = identity_order(tasks.size());
  double lo = 1e300, hi = 0.0;
  do {
    const double t = pipeline_makespan(tasks, perm);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_LE(hi - lo, write_sum);
}

TEST(Scheduler, UnbalancedRegimesLeaveLittleRoom) {
  // Fig. 10: when write >> comp or comp >> write, reordering cannot help
  // much. Verify the optimal-vs-worst spread is small relative to total.
  const std::vector<ScheduledTask> write_heavy{{0.01, 5.0}, {0.02, 4.0}, {0.01, 6.0}};
  const std::vector<ScheduledTask> comp_heavy{{5.0, 0.01}, {4.0, 0.02}, {6.0, 0.01}};
  for (const auto& tasks : {write_heavy, comp_heavy}) {
    std::vector<int> perm = identity_order(tasks.size());
    double lo = 1e300, hi = 0.0;
    do {
      const double t = pipeline_makespan(tasks, perm);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_LT((hi - lo) / lo, 0.25);
  }
}

TEST(Scheduler, SingleAndEmptyInputs) {
  EXPECT_TRUE(optimize_order({}).empty());
  const std::vector<ScheduledTask> one{{1.0, 1.0}};
  EXPECT_EQ(optimize_order(one), std::vector<int>{0});
  EXPECT_DOUBLE_EQ(pipeline_makespan(one, std::vector<int>{0}), 2.0);
}

class SchedulerFieldCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerFieldCountSweep, OptimizerScalesAndImproves) {
  const int n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 131);
  std::vector<ScheduledTask> tasks(static_cast<std::size_t>(n));
  for (auto& t : tasks) {
    t.comp_seconds = rng.uniform(0.05, 1.0);
    t.write_seconds = rng.uniform(0.05, 1.0);
  }
  const auto opt = optimize_order(tasks);
  ASSERT_EQ(opt.size(), static_cast<std::size_t>(n));
  EXPECT_LE(pipeline_makespan(tasks, opt),
            pipeline_makespan(tasks, identity_order(tasks.size())) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(FieldCounts, SchedulerFieldCountSweep,
                         ::testing::Values(1, 2, 3, 6, 9, 20, 100));

}  // namespace
}  // namespace pcw::core

// Compression-order optimization (the paper's Algorithm 1).
//
// Within one process, F fields are compressed sequentially but written
// asynchronously; the pipeline makespan is
//
//     t_c <- t_c + P_c(l)                (compression is serial)
//     t_w <- P_w(l) + max(t_c, t_w)      (a write starts when both its
//                                         data and the I/O lane are free)
//
// Total compression time is order-invariant, so the optimizer permutes
// fields to minimize the exposed write tail. Algorithm 1 is a greedy
// insertion construction: fields are taken in input order and each is
// inserted at the position that minimizes TIME(Q). O(F^2) evaluations of
// an O(F) objective — negligible next to compression (the paper measures
// 0.17% overhead at F = 100).
#pragma once

#include <span>
#include <vector>

namespace pcw::core {

struct ScheduledTask {
  double comp_seconds = 0.0;   // P_c: predicted compression time
  double write_seconds = 0.0;  // P_w: predicted write time
};

/// TIME(q): pipeline makespan of tasks executed in the given order.
double pipeline_makespan(std::span<const ScheduledTask> tasks,
                         std::span<const int> order);

/// Algorithm 1: returns a permutation of [0, tasks.size()) to compress in.
std::vector<int> optimize_order(std::span<const ScheduledTask> tasks);

/// Baseline order: fields in input order (kOverlap, ablation benches).
std::vector<int> identity_order(std::size_t n);

}  // namespace pcw::core

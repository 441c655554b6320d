#include "core/scheduler.h"

#include <algorithm>
#include <numeric>

namespace pcw::core {

double pipeline_makespan(std::span<const ScheduledTask> tasks,
                         std::span<const int> order) {
  double tc = 0.0, tw = 0.0;
  for (const int idx : order) {
    const ScheduledTask& t = tasks[static_cast<std::size_t>(idx)];
    tc += t.comp_seconds;
    tw = t.write_seconds + std::max(tc, tw);
  }
  return tw;
}

std::vector<int> optimize_order(std::span<const ScheduledTask> tasks) {
  std::vector<int> queue;
  queue.reserve(tasks.size());
  std::vector<int> candidate;
  for (int field = 0; field < static_cast<int>(tasks.size()); ++field) {
    double best_time = 0.0;
    std::size_t best_pos = 0;
    bool first = true;
    for (std::size_t pos = 0; pos <= queue.size(); ++pos) {
      candidate = queue;
      candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(pos), field);
      const double t = pipeline_makespan(tasks, candidate);
      if (first || t < best_time) {
        best_time = t;
        best_pos = pos;
        first = false;
      }
    }
    queue.insert(queue.begin() + static_cast<std::ptrdiff_t>(best_pos), field);
  }
  return queue;
}

std::vector<int> identity_order(std::size_t n) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace pcw::core

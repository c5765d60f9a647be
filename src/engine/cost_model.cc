#include "engine/cost_model.h"

#include <algorithm>
#include <numeric>

namespace receipt::engine {

Count PlacementPlan::Makespan() const {
  Count makespan = 0;
  for (const Count load : bin_loads) makespan = std::max(makespan, load);
  return makespan;
}

Count PlacementPlan::MigrationPressure() const {
  if (bin_loads.empty()) return 0;
  Count total = 0;
  for (const Count load : bin_loads) total += load;
  const Count bins = static_cast<Count>(bin_loads.size());
  const Count avg_ceil = (total + bins - 1) / bins;
  Count pressure = 0;
  for (const Count load : bin_loads) {
    if (load > avg_ceil) pressure += load - avg_ceil;
  }
  return pressure;
}

namespace {

PlacementPlan MakeEmptyPlan(size_t num_items, uint32_t num_bins) {
  PlacementPlan plan;
  plan.bin_of.assign(num_items, 0);
  plan.bin_items.resize(std::max(1u, num_bins));
  plan.bin_loads.assign(std::max(1u, num_bins), 0);
  return plan;
}

}  // namespace

PlacementPlan AssignLpt(std::span<const Count> costs, uint32_t num_bins) {
  PlacementPlan plan = MakeEmptyPlan(costs.size(), num_bins);
  std::vector<uint32_t> order(costs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&costs](uint32_t a, uint32_t b) {
    if (costs[a] != costs[b]) return costs[a] > costs[b];
    return a < b;
  });
  for (const uint32_t item : order) {
    uint32_t best = 0;
    for (uint32_t b = 1; b < plan.bin_loads.size(); ++b) {
      if (plan.bin_loads[b] < plan.bin_loads[best]) best = b;
    }
    plan.bin_of[item] = best;
    plan.bin_items[best].push_back(item);
    plan.bin_loads[best] += costs[item];
  }
  return plan;
}

PlacementPlan AssignRoundRobin(std::span<const Count> costs,
                               uint32_t num_bins) {
  PlacementPlan plan = MakeEmptyPlan(costs.size(), num_bins);
  const uint32_t bins = static_cast<uint32_t>(plan.bin_loads.size());
  for (uint32_t item = 0; item < costs.size(); ++item) {
    const uint32_t b = item % bins;
    plan.bin_of[item] = b;
    plan.bin_items[b].push_back(item);
    plan.bin_loads[b] += costs[item];
  }
  return plan;
}

}  // namespace receipt::engine

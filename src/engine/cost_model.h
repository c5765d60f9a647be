#ifndef RECEIPT_ENGINE_COST_MODEL_H_
#define RECEIPT_ENGINE_COST_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace receipt::engine {

/// How RECEIPT FD partitions are assigned to NUMA nodes (or to the single
/// virtual node on machines without NUMA). Both modes are deterministic and
/// produce bit-identical decomposition results — subsets are peeled
/// independently, so assignment only moves work between nodes.
enum class PlacementAssign {
  /// Greedy Longest-Processing-Time: partitions sorted by decreasing
  /// predicted peel cost, each assigned to the least-loaded node. The
  /// cost-model-driven default.
  kCostLpt,
  /// Partitions dealt to nodes in creation order — the baseline
  /// bench_placement_micro gates against.
  kRoundRobin,
};

/// The outcome of placing `costs.size()` partitions onto `num_bins` nodes:
/// the assignment, each node's work queue (in the order workers should pop
/// it) and the predicted per-node loads.
struct PlacementPlan {
  /// bin_of[i] = node index of partition i.
  std::vector<uint32_t> bin_of;
  /// Per node: the partition ids it owns, highest predicted cost first for
  /// kCostLpt (LPT pop order), creation order for kRoundRobin.
  std::vector<std::vector<uint32_t>> bin_items;
  /// Predicted load per node (sum of member costs).
  std::vector<Count> bin_loads;

  /// Predicted makespan: the load of the most loaded node.
  Count Makespan() const;
  /// Cost mass that must cross nodes to reach perfect balance from this
  /// assignment: Σ_node max(0, load − ⌈avg⌉). A deterministic proxy for
  /// the cross-node traffic stealing will generate — the quantity LPT
  /// placement drives down and bench_placement_micro reports.
  Count MigrationPressure() const;
};

/// Greedy LPT (the §3.2.1 workload-aware rule, lifted from a sort order to
/// a node assignment): partitions are taken in decreasing predicted cost
/// (ties by lower partition id, so the plan is deterministic) and each goes
/// to the currently least-loaded node (ties by lower node index).
/// Guarantees makespan ≤ (4/3 − 1/(3·num_bins)) · OPT; the unit tests
/// check this against brute force.
PlacementPlan AssignLpt(std::span<const Count> costs, uint32_t num_bins);

/// Baseline: partition i goes to node i mod num_bins, queues kept in
/// creation order.
PlacementPlan AssignRoundRobin(std::span<const Count> costs,
                               uint32_t num_bins);

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_COST_MODEL_H_

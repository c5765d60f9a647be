#ifndef RECEIPT_ENGINE_GRAPH_MAINTENANCE_H_
#define RECEIPT_ENGINE_GRAPH_MAINTENANCE_H_

#include <cstdint>
#include <span>

#include "graph/dynamic_graph.h"
#include "util/types.h"

namespace receipt::engine {

/// The shared Dynamic Graph Maintenance + Hybrid Update Computation service
/// (§4.1–§4.2), lifted out of the CD and FD drivers.
///
/// Owns the two pieces of state every peeling loop used to duplicate:
///   * the wedge-mass accumulator that triggers a DGM adjacency compaction
///     once more wedges were traversed than the graph has edge slots, and
///   * the re-counting cost bound C_rcnt that lets HUC decide when a full
///     re-count beats a peel-update round. Every compaction moves it by the
///     terms of the edges it removed or re-degreed (DynamicGraph::Compact),
///     so it always equals RecountCostBound() as of the last compaction
///     without a full pass.
///
/// One instance per peeled DynamicGraph (the full graph in CD, each induced
/// subgraph in FD). All counters are deterministic for a fixed input, which
/// is what keeps stats.huc_recounts / stats.dgm_compactions invariant
/// across thread counts.
class GraphMaintenance {
 public:
  /// `live` must have no kills pending (freshly built or just compacted).
  /// `wedge_budget` is the DGM trigger threshold — the paper uses m, the
  /// number of edges of the peeled graph. Compactions and the initial
  /// re-count bound run on `num_threads` threads.
  GraphMaintenance(DynamicGraph& live, bool use_huc, bool use_dgm,
                   uint64_t wedge_budget, int num_threads = 1);

  /// HUC (§4.1): should peeling the (already killed) vertices `peeled`,
  /// whose static wedge counts sum to `static_cost`, be replaced by a full
  /// re-count? Decides on their live wedge counts, which shrink as
  /// neighbours die and DGM compacts them away. A vertex's live count never
  /// exceeds its static one, so the live sum is only taken when the static
  /// sum already exceeds C_rcnt. Always false when HUC is disabled.
  bool ShouldRecount(Count static_cost,
                     std::span<const VertexId> peeled) const;

  /// Compacts the graph ahead of a re-count (the re-count runs on the
  /// compacted structure) and resets the wedge accumulator. A re-count
  /// kills nothing, so C_rcnt stays valid through it.
  void BeginRecount() { CompactNow(); }

  /// Accounts `wedges` traversed by a peel-update round and performs a DGM
  /// compaction when the accumulated mass exceeds the budget.
  void OnPeelWedges(uint64_t wedges);

  /// Total compaction passes (re-count preludes + DGM triggers), for
  /// stats.dgm_compactions.
  uint64_t compactions() const { return compactions_; }

  /// C_rcnt as of the last compaction (0 when HUC is disabled).
  Count recount_bound() const { return recount_bound_; }

 private:
  void CompactNow();

  DynamicGraph* live_;
  bool use_huc_;
  bool use_dgm_;
  uint64_t wedge_budget_;
  int num_threads_;
  uint64_t wedges_since_compact_ = 0;
  Count recount_bound_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_GRAPH_MAINTENANCE_H_

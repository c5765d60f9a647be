#ifndef RECEIPT_GRAPH_INDUCED_SUBGRAPH_H_
#define RECEIPT_GRAPH_INDUCED_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/dynamic_graph.h"
#include "util/relaxed_counter.h"
#include "util/types.h"

namespace receipt {

/// The subgraph G_i induced on a subset U_i ⊆ U together with the entire V
/// side, re-labelled into a compact local id space (Alg. 4 line 5).
///
/// Only V vertices with at least one neighbor in U_i are materialized, so
/// the structure is proportional to the subset's edge count, not to |V|.
/// Every butterfly between two members of U_i survives in `graph` because
/// all their common neighbors are kept (Theorem 2's requirement).
struct InducedSubgraph {
  BipartiteGraph graph;              ///< local CSR: U' = subset, V' = touched V.
  std::vector<VertexId> u_global;    ///< local u id -> global u id.
  std::vector<VertexId> v_global;    ///< local v id -> global v id (side-local).
};

/// Reusable backing store for induced-subgraph construction: the product
/// itself plus every piece of scratch the build needs, all retaining their
/// capacity between builds. One arena lives in each PeelWorkspace, so
/// RECEIPT FD rebuilds its per-partition subgraph (and the DynamicGraph
/// layered on it) with zero heap allocations in steady state.
struct InducedSubgraphArena {
  InducedSubgraph subgraph;                 ///< rebuilt in place per partition.
  DynamicGraph live;                        ///< peelable view over subgraph.graph.
  std::vector<VertexId> ranks;              ///< DegreeDescendingRanks output.
  std::vector<VertexId> rank_scratch;       ///< rank counting-sort buckets.
  std::vector<BipartiteGraph::Edge> edges;  ///< local edge-list scratch.
  /// Dense first-seen map: global side-local V id -> local V id + 1
  /// (0 = unseen). Only entries touched by the last build are non-zero;
  /// the build resets them on exit.
  std::vector<VertexId> v_local_plus1;

  /// Number of builds that had to grow one of the arena's buffers. Stable
  /// once warm — the arena-reuse tests assert no growth across partitions.
  /// Relaxed-atomic so live telemetry scrapes can read it mid-request.
  util::RelaxedCounter growths;

  /// Approximate capacity of all owned buffers, in elements.
  size_t CapacityFootprint() const {
    return subgraph.graph.CapacityFootprint() +
           subgraph.u_global.capacity() + subgraph.v_global.capacity() +
           live.CapacityFootprint() + ranks.capacity() +
           rank_scratch.capacity() + edges.capacity() +
           v_local_plus1.capacity();
  }
};

/// Builds the induced subgraph for `subset_u` (global U ids) of `graph`.
/// Thread-safe for concurrent calls on disjoint subsets (RECEIPT FD builds
/// one per task).
InducedSubgraph BuildInducedSubgraph(const BipartiteGraph& graph,
                                     std::span<const VertexId> subset_u);

/// Arena variant: rebuilds `arena.subgraph` in place (allocation-free once
/// the arena is warm) and returns a reference to it. The result is
/// bit-identical to the allocating overload. `arena.live` is NOT touched;
/// callers reset it themselves when they need the peelable view.
const InducedSubgraph& BuildInducedSubgraph(const BipartiteGraph& graph,
                                            std::span<const VertexId> subset_u,
                                            InducedSubgraphArena& arena);

}  // namespace receipt

#endif  // RECEIPT_GRAPH_INDUCED_SUBGRAPH_H_

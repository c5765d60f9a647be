#ifndef RECEIPT_ENGINE_COUNTING_H_
#define RECEIPT_ENGINE_COUNTING_H_

#include <cstdint>
#include <span>

#include "engine/workspace.h"
#include "graph/dynamic_graph.h"
#include "util/types.h"
#include "wing/edge_topology.h"

namespace receipt::engine {

/// Which vertices a per-vertex count credits.
enum class CountScope : uint8_t {
  /// Every vertex of both sides (the public counting API, BUP, ParB).
  kBothSides,
  /// U vertices only; V entries stay 0. Tip peeling reads U supports
  /// only, so RECEIPT's counts skip the V-side atomic adds (and, for U
  /// start points, the wedge list) while traversing the same wedges.
  kUOnly,
};

/// Per-vertex butterfly counting (Alg. 1, pvBcnt) over the live vertices
/// of `graph`, on one thread per workspace of `team` (each thread's dense
/// wedge-aggregation array — no allocation once warm). Decompositions pass
/// WorkspacePool::Team(T); an FD task re-counting its own induced subgraph
/// for HUC passes its one workspace.
///
/// Writes the number of butterflies incident on every vertex w in `scope`
/// to `support[w]` (size num_vertices; dead and out-of-scope vertices get
/// 0) and returns the number of wedges traversed.
uint64_t CountVertexButterflies(const DynamicGraph& graph,
                                std::span<PeelWorkspace> team,
                                std::span<Count> support,
                                CountScope scope = CountScope::kBothSides);

/// Parallel per-edge butterfly counting for wing decomposition, over the
/// live runs of `topo` from the side whose start points walk fewer wedges
/// (ties start from U): bcnt(a,b) = Σ_{c∈N(b)\{a}} (|N(a) ∩ N(c)| − 1) for start point a,
/// written to `support[k]` for every edge k (size num_edges). Each edge has
/// one end on the start side, so each entry is written once. Returns
/// wedges traversed, 2·min(Σ_u d(u)², Σ_v d(v)²) on fresh runs.
uint64_t CountEdgeButterflies(const EdgeTopology& topo, WorkspacePool& pool,
                              int num_threads, std::span<Count> support);

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_COUNTING_H_

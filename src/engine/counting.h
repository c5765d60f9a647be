#ifndef RECEIPT_ENGINE_COUNTING_H_
#define RECEIPT_ENGINE_COUNTING_H_

#include <cstdint>
#include <span>

#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "graph/dynamic_graph.h"
#include "util/types.h"

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

/// Parallel per-edge butterfly counting for wing decomposition:
/// bcnt(u,v) = Σ_{u'∈N(v)\{u}} (|N(u) ∩ N(u')| − 1), written to
/// `support[e]` for every U-side CSR slot e (size num_edges). Returns
/// wedges traversed.
uint64_t CountEdgeButterflies(const BipartiteGraph& graph, WorkspacePool& pool,
                              int num_threads, std::span<Count> support);

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_COUNTING_H_

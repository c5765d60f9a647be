#ifndef RECEIPT_WING_WING_DECOMPOSITION_H_
#define RECEIPT_WING_WING_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/types.h"

namespace receipt {

namespace engine {
class PeelControl;
class WorkspacePool;
}  // namespace engine

/// Edge identifiers for wing decomposition: edge e ∈ [0, m) is the e-th slot
/// of the U-side CSR region, i.e. the pair (EdgeSourceU(g, e),
/// g.adjacency()[e]). U vertices own the contiguous prefix of the adjacency
/// array, so this needs no extra storage.
VertexId EdgeSourceU(const BipartiteGraph& graph, EdgeOffset edge_id);

/// Per-edge butterfly counts: bcnt(u,v) = # butterflies containing edge
/// (u,v) = Σ_{u'∈N(v)\{u}} (|N(u) ∩ N(u')| − 1). O(Σ wedges) via the
/// Chiba–Nishizeki triple traversal; parallel over the vertices of the side
/// whose wedges are fewer (each owns one end of every edge, so no atomics
/// are needed).
std::vector<Count> PerEdgeButterflyCount(const BipartiteGraph& graph,
                                         int num_threads,
                                         uint64_t* wedges_traversed = nullptr);

/// O(butterflies)-style reference per-edge counter for tests (explicit
/// butterfly enumeration per vertex pair).
std::vector<Count> BruteForcePerEdgeCount(const BipartiteGraph& graph);

/// Every wing entry point addresses edges by 32-bit ids and aborts with a
/// message on a graph of 2^32 edges or more (CheckWingEdgeCount).

/// Result of a wing decomposition (edge peeling).
struct WingResult {
  /// wing_numbers[e] = largest k such that edge e is in a k-wing (every
  /// edge of the subgraph participates in ≥ k butterflies).
  std::vector<Count> wing_numbers;
  PeelStats stats;

  Count MaxWingNumber() const {
    Count max_wing = 0;
    for (const Count w : wing_numbers) max_wing = std::max(max_wing, w);
    return max_wing;
  }
};

/// Sequential bottom-up wing decomposition (edge peeling) — the §7
/// extension direction: peel the minimum-support edge, enumerate its
/// surviving butterflies, and decrement the other three edges of each
/// (clamped at the current wing number). Counting uses `num_threads`.
/// `workspace_pool` (optional) supplies caller-owned scratch for cross-run
/// reuse; `control` (optional) is the cancellation/progress hook — on
/// cancellation the returned wing numbers are incomplete. `trace`
/// (optional) receives "engine.count" / "engine.peel" phase spans.
WingResult WingDecompose(const BipartiteGraph& graph, int num_threads = 1,
                         engine::WorkspacePool* workspace_pool = nullptr,
                         engine::PeelControl* control = nullptr,
                         obs::TraceContext trace = {});

}  // namespace receipt

#endif  // RECEIPT_WING_WING_DECOMPOSITION_H_

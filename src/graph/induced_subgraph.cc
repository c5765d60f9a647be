#include "graph/induced_subgraph.h"

namespace receipt {

InducedSubgraph BuildInducedSubgraph(const BipartiteGraph& graph,
                                     std::span<const VertexId> subset_u) {
  InducedSubgraphArena arena;
  BuildInducedSubgraph(graph, subset_u, arena);
  return std::move(arena.subgraph);
}

const InducedSubgraph& BuildInducedSubgraph(const BipartiteGraph& graph,
                                            std::span<const VertexId> subset_u,
                                            InducedSubgraphArena& arena) {
  const size_t footprint_before = arena.CapacityFootprint();
  InducedSubgraph& out = arena.subgraph;
  out.u_global.assign(subset_u.begin(), subset_u.end());
  out.v_global.clear();

  // Map touched V vertices to compact local ids in first-seen order through
  // a dense map (same first-seen order the hash-map implementation
  // produced, so the resulting graphs are bit-identical).
  if (arena.v_local_plus1.size() < static_cast<size_t>(graph.num_v())) {
    arena.v_local_plus1.resize(graph.num_v(), 0);
  }
  arena.edges.clear();
  for (VertexId lu = 0; lu < subset_u.size(); ++lu) {
    const VertexId gu = subset_u[lu];
    for (VertexId gv : graph.Neighbors(gu)) {
      const VertexId v_side = graph.Local(gv);
      VertexId lv_plus1 = arena.v_local_plus1[v_side];
      if (lv_plus1 == 0) {
        out.v_global.push_back(v_side);
        lv_plus1 = static_cast<VertexId>(out.v_global.size());
        arena.v_local_plus1[v_side] = lv_plus1;
      }
      arena.edges.push_back({lu, lv_plus1 - 1});
    }
  }
  // Restore the all-zero map invariant by resetting exactly the touched
  // entries (O(|V'|), not O(|V|)).
  for (const VertexId v_side : out.v_global) arena.v_local_plus1[v_side] = 0;

  out.graph.AssignFromEdges(static_cast<VertexId>(subset_u.size()),
                            static_cast<VertexId>(out.v_global.size()),
                            arena.edges);
  if (arena.CapacityFootprint() > footprint_before) ++arena.growths;
  return out;
}

}  // namespace receipt

#ifndef RECEIPT_WING_EDGE_TOPOLOGY_H_
#define RECEIPT_WING_EDGE_TOPOLOGY_H_

#include <vector>

#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt {

/// Edge-id addressing used by wing (edge-peeling) algorithms. Edge e ∈
/// [0, m) is the e-th slot of the U-side CSR region; this structure adds the
/// reverse maps needed to walk butterflies edge-wise in O(1) per step.
struct EdgeTopology {
  /// edge id -> source U vertex.
  std::vector<VertexId> source;
  /// For every V-side adjacency slot (offset by v_region), the U-side edge
  /// id of the same edge.
  std::vector<EdgeOffset> v_slot_edge;
  /// First V-side slot = offsets[num_u].
  EdgeOffset v_region = 0;
  /// Per global vertex id w: Σ_{x∈N(w)} d(x), the length of the 2-hop walk
  /// out of w. The wing peel kernel compares the two ends of an edge by it.
  std::vector<Count> walk;
};

/// Builds the maps for `graph`. O(m).
EdgeTopology BuildEdgeTopology(const BipartiteGraph& graph);

/// In-place variant reusing `topo`'s (and `cursor_scratch`'s) capacity —
/// the allocation-free path for per-partition environment graphs.
void BuildEdgeTopologyInto(const BipartiteGraph& graph, EdgeTopology& topo,
                           std::vector<EdgeOffset>& cursor_scratch);

}  // namespace receipt

#endif  // RECEIPT_WING_EDGE_TOPOLOGY_H_

#include "wing/edge_topology.h"

namespace receipt {

EdgeTopology BuildEdgeTopology(const BipartiteGraph& graph) {
  EdgeTopology topo;
  std::vector<EdgeOffset> cursor;
  BuildEdgeTopologyInto(graph, topo, cursor);
  return topo;
}

void BuildEdgeTopologyInto(const BipartiteGraph& graph, EdgeTopology& topo,
                           std::vector<EdgeOffset>& cursor_scratch) {
  const uint64_t num_edges = graph.num_edges();
  topo.source.resize(num_edges);
  topo.v_region = graph.offsets()[graph.num_u()];
  topo.v_slot_edge.resize(num_edges);
  topo.walk.assign(graph.num_vertices(), 0);
  cursor_scratch.assign(graph.num_v(), 0);
  // Walking U-side edges in id order visits each v's neighbors in ascending
  // source order, which matches v's sorted adjacency list.
  for (VertexId u = 0; u < graph.num_u(); ++u) {
    const EdgeOffset begin = graph.NeighborOffset(u);
    const EdgeOffset end = begin + graph.Degree(u);
    for (EdgeOffset e = begin; e < end; ++e) {
      const VertexId gv = graph.adjacency()[e];
      topo.source[e] = u;
      const EdgeOffset slot = graph.NeighborOffset(gv) +
                              cursor_scratch[gv - graph.num_u()]++ -
                              topo.v_region;
      topo.v_slot_edge[slot] = e;
      topo.walk[u] += graph.Degree(gv);
      topo.walk[gv] += graph.Degree(u);
    }
  }
}

}  // namespace receipt

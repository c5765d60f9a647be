// Unit tests for the edge-id addressing substrate of the wing algorithms.

#include "wing/edge_topology.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

TEST(EdgeTopologyTest, SourcesMatchCsrLayout) {
  const BipartiteGraph g = ChungLuBipartite(50, 30, 200, 0.6, 0.4, 701);
  const EdgeTopology topo = BuildEdgeTopology(g);
  ASSERT_EQ(topo.source.size(), g.num_edges());
  for (VertexId u = 0; u < g.num_u(); ++u) {
    const EdgeOffset base = g.NeighborOffset(u);
    for (uint64_t j = 0; j < g.Degree(u); ++j) {
      EXPECT_EQ(topo.source[base + j], u);
    }
  }
}

TEST(EdgeTopologyTest, VSlotMapRoundTrips) {
  const BipartiteGraph g = ChungLuBipartite(40, 25, 180, 0.5, 0.7, 703);
  const EdgeTopology topo = BuildEdgeTopology(g);
  // For every V vertex and slot, the mapped U-side edge must name this V
  // vertex and the slot's U neighbor.
  for (VertexId vl = 0; vl < g.num_v(); ++vl) {
    const VertexId gv = g.VGlobal(vl);
    const EdgeOffset base = g.NeighborOffset(gv);
    const auto nbrs = g.Neighbors(gv);
    for (size_t s = 0; s < nbrs.size(); ++s) {
      const EdgeOffset e = topo.v_slot_edge[base + s - topo.v_region];
      EXPECT_EQ(g.adjacency()[e], gv);
      EXPECT_EQ(topo.source[e], nbrs[s]);
    }
  }
}

TEST(EdgeTopologyTest, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {});
  const EdgeTopology topo = BuildEdgeTopology(g);
  EXPECT_TRUE(topo.source.empty());
  EXPECT_TRUE(topo.v_slot_edge.empty());
}

TEST(EdgeTopologyTest, MatchesEdgeSourceU) {
  const BipartiteGraph g = ChungLuBipartite(30, 30, 150, 0.3, 0.3, 707);
  const EdgeTopology topo = BuildEdgeTopology(g);
  for (EdgeOffset e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(topo.source[e], EdgeSourceU(g, e));
  }
}

TEST(EdgeTopologyTest, WalkSumsNeighborDegrees) {
  const BipartiteGraph g = ChungLuBipartite(40, 30, 200, 0.7, 0.4, 709);
  const EdgeTopology topo = BuildEdgeTopology(g);
  ASSERT_EQ(topo.walk.size(), g.num_vertices());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    Count expected = 0;
    for (const VertexId x : g.Neighbors(w)) expected += g.Degree(x);
    EXPECT_EQ(topo.walk[w], expected) << "vertex " << w;
  }
}

}  // namespace
}  // namespace receipt

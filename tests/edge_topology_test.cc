// Unit tests for the edge-addressed live adjacency of the wing algorithms.

#include "wing/edge_topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "graph/generators.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

/// Asserts that every run of `topo` is g's CSR list of that vertex with the
/// edges `dead` names filtered out, in CSR order, and that each entry's id
/// maps back to the entry's (u, v).
void ExpectRunsMatchCsr(const BipartiteGraph& g, const EdgeTopology& topo,
                        const std::vector<uint8_t>& dead) {
  ASSERT_EQ(topo.num_vertices(), g.num_vertices());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    std::vector<VertexId> expected;
    for (const VertexId x : g.Neighbors(w)) {
      const VertexId u = std::min(w, x);
      const VertexId gv = std::max(w, x);
      const auto nbrs = g.Neighbors(u);
      const EdgeOffset k =
          g.NeighborOffset(u) +
          static_cast<EdgeOffset>(
              std::lower_bound(nbrs.begin(), nbrs.end(), gv) - nbrs.begin());
      if (dead[k] == 0) expected.push_back(x);
    }
    std::vector<VertexId> actual;
    for (const EdgeTopology::Entry& entry : topo.Run(w)) {
      actual.push_back(entry.nbr);
      ASSERT_EQ(dead[entry.edge], 0) << "vertex " << w;
      const bool w_is_u = w < g.num_u();
      EXPECT_EQ(topo.source[entry.edge], w_is_u ? w : entry.nbr);
      EXPECT_EQ(topo.target[entry.edge], w_is_u ? entry.nbr : w);
    }
    ASSERT_EQ(actual, expected) << "vertex " << w;
  }
}

TEST(EdgeTopologyTest, SourcesMatchCsrLayout) {
  const BipartiteGraph g = ChungLuBipartite(50, 30, 200, 0.6, 0.4, 701);
  const EdgeTopology topo = BuildEdgeTopology(g);
  ASSERT_EQ(topo.source.size(), g.num_edges());
  for (VertexId u = 0; u < g.num_u(); ++u) {
    const EdgeOffset base = g.NeighborOffset(u);
    for (uint64_t j = 0; j < g.Degree(u); ++j) {
      EXPECT_EQ(topo.source[base + j], u);
      EXPECT_EQ(topo.target[base + j], g.adjacency()[base + j]);
    }
  }
}

TEST(EdgeTopologyTest, RunsListCsrNeighboursWithTheirEdgeIds) {
  const BipartiteGraph g = ChungLuBipartite(40, 25, 180, 0.5, 0.7, 703);
  const EdgeTopology topo = BuildEdgeTopology(g);
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    EXPECT_EQ(topo.Degree(w), g.Degree(w));
  }
  ExpectRunsMatchCsr(g, topo, std::vector<uint8_t>(g.num_edges(), 0));
}

TEST(EdgeTopologyTest, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {});
  const EdgeTopology topo = BuildEdgeTopology(g);
  EXPECT_TRUE(topo.source.empty());
  EXPECT_TRUE(topo.entries.empty());
  for (VertexId w = 0; w < topo.num_vertices(); ++w) {
    EXPECT_TRUE(topo.Run(w).empty());
  }
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

// Random kill orders, applied the two ways the peel loops compact: one
// edge at a time (the sequential peels) and one batch at a time, each end's
// run once (a coarse round's end). After every step the runs must be the
// CSR lists minus the dead edges.
TEST(EdgeTopologyTest, RunsTrackRandomKills) {
  const std::vector<BipartiteGraph> graphs = {
      ChungLuBipartite(40, 30, 220, 0.8, 0.3, 711),
      ChungLuBipartite(25, 50, 240, 0.2, 0.9, 712),
  };
  std::mt19937_64 rng(713);
  for (const BipartiteGraph& g : graphs) {
    const uint64_t m = g.num_edges();
    for (const bool batched : {false, true}) {
      SCOPED_TRACE(batched ? "batched" : "one edge at a time");
      EdgeTopology topo = BuildEdgeTopology(g);
      std::vector<EdgeOffset> order(m);
      for (EdgeOffset k = 0; k < m; ++k) order[k] = k;
      std::shuffle(order.begin(), order.end(), rng);
      std::vector<uint8_t> dead(m, 0);
      size_t next = 0;
      while (next < m) {
        const size_t batch =
            batched ? std::min<size_t>(m - next, 1 + rng() % 12) : 1;
        std::vector<VertexId> ends;
        for (size_t i = next; i < next + batch; ++i) {
          const EdgeOffset k = order[i];
          dead[k] = 1;
          if (!batched) topo.RemoveEdge(k);
          ends.push_back(topo.source[k]);
          ends.push_back(topo.target[k]);
        }
        if (batched) {
          std::sort(ends.begin(), ends.end());
          ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
          for (const VertexId w : ends) {
            topo.CompactRun(w, [&dead](uint32_t x) { return dead[x] != 0; });
          }
        }
        next += batch;
        ExpectRunsMatchCsr(g, topo, dead);
        if (HasFatalFailure()) return;
      }
      for (VertexId w = 0; w < topo.num_vertices(); ++w) {
        EXPECT_TRUE(topo.Run(w).empty());
      }
    }
  }
}

TEST(EdgeTopologyTest, EnvironmentKeepsHigherSubsetsInIdOrder) {
  const BipartiteGraph g = ChungLuBipartite(40, 30, 220, 0.6, 0.6, 717);
  const EdgeTopology parent = BuildEdgeTopology(g);
  std::mt19937_64 rng(719);
  std::vector<uint32_t> subset_of(g.num_edges());
  for (uint32_t& s : subset_of) s = static_cast<uint32_t>(rng() % 4);
  EdgeTopology env;
  std::vector<EdgeOffset> env_ids;
  for (uint32_t sid = 0; sid < 4; ++sid) {
    BuildEnvironmentInto(parent, subset_of, sid, env, env_ids);
    std::vector<EdgeOffset> expected_ids;
    for (EdgeOffset k = 0; k < g.num_edges(); ++k) {
      if (subset_of[k] >= sid) expected_ids.push_back(k);
    }
    ASSERT_EQ(env_ids, expected_ids) << "subset " << sid;
    std::vector<uint8_t> dropped(g.num_edges(), 1);
    for (uint64_t j = 0; j < env.num_edges(); ++j) {
      EXPECT_EQ(env.source[j], parent.source[env_ids[j]]);
      EXPECT_EQ(env.target[j], parent.target[env_ids[j]]);
      dropped[env_ids[j]] = 0;
    }
    // Env runs, with local ids mapped back, are the parent's CSR lists
    // minus the dropped edges.
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      std::vector<std::pair<VertexId, EdgeOffset>> expected;
      for (const EdgeTopology::Entry& entry : parent.Run(w)) {
        if (dropped[entry.edge] == 0) {
          expected.emplace_back(entry.nbr, entry.edge);
        }
      }
      std::vector<std::pair<VertexId, EdgeOffset>> actual;
      Count walk = 0;
      for (const EdgeTopology::Entry& entry : env.Run(w)) {
        actual.emplace_back(entry.nbr, env_ids[entry.edge]);
        walk += env.Degree(entry.nbr);
      }
      ASSERT_EQ(actual, expected) << "subset " << sid << " vertex " << w;
      EXPECT_EQ(env.Degree(w), actual.size());
      EXPECT_EQ(env.walk[w], walk);
    }
  }
}

TEST(EdgeTopologyDeathTest, RefusesEdgeIdsPastThirtyTwoBits) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  CheckWingEdgeCount(kMaxWingEdges, "WingDecompose");  // fits: returns
  EXPECT_DEATH(CheckWingEdgeCount(kMaxWingEdges + 1, "WingDecompose"),
               "WingDecompose: the graph has 4294967296 edges");
}

}  // namespace
}  // namespace receipt

// Unit tests for DynamicGraph: kill/compact semantics, rank ordering, cost
// models (§4.2 Dynamic Graph Maintenance substrate).

#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "graph/generators.h"

namespace receipt {
namespace {

DynamicGraph MakeLive(const BipartiteGraph& g) {
  return DynamicGraph(g, g.DegreeDescendingRanks());
}

TEST(DynamicGraphTest, InitialStateMirrorsGraph) {
  const BipartiteGraph g = ChungLuBipartite(50, 30, 200, 0.5, 0.5, 31);
  const DynamicGraph live = MakeLive(g);
  EXPECT_EQ(live.num_u(), g.num_u());
  EXPECT_EQ(live.num_v(), g.num_v());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    EXPECT_TRUE(live.IsAlive(w));
    EXPECT_EQ(live.Degree(w), g.Degree(w));
  }
  EXPECT_EQ(live.LiveEdgeSlots(), 2 * g.num_edges());
  EXPECT_EQ(live.NumAlive(Side::kU), g.num_u());
  EXPECT_EQ(live.NumAlive(Side::kV), g.num_v());
}

TEST(DynamicGraphTest, NeighborsSortedByRank) {
  const BipartiteGraph g = ChungLuBipartite(50, 30, 200, 0.8, 0.8, 33);
  const DynamicGraph live = MakeLive(g);
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    const auto nbrs = live.Neighbors(w);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(live.Rank(nbrs[i - 1]), live.Rank(nbrs[i]));
    }
  }
}

TEST(DynamicGraphTest, RecountCostBoundMatchesStaticGraph) {
  const BipartiteGraph g = ChungLuBipartite(60, 40, 250, 0.6, 0.6, 35);
  const DynamicGraph live = MakeLive(g);
  EXPECT_EQ(live.RecountCostBound(), g.CountingCostBound());
}

TEST(DynamicGraphTest, KillThenCompactRemovesEdges) {
  // K_{3,3}: killing one u must shave one entry off every v after Compact.
  const BipartiteGraph g = CompleteBipartite(3, 3);
  DynamicGraph live = MakeLive(g);
  live.Kill(0);
  EXPECT_FALSE(live.IsAlive(0));
  // Before compaction, neighbor lists still include the dead vertex.
  EXPECT_EQ(live.Degree(g.VGlobal(0)), 3u);
  live.Compact(2);
  EXPECT_EQ(live.Degree(g.VGlobal(0)), 2u);
  EXPECT_EQ(live.Degree(g.VGlobal(1)), 2u);
  EXPECT_EQ(live.Degree(g.VGlobal(2)), 2u);
  EXPECT_EQ(live.Degree(0), 0u);  // dead vertex's own list is dropped
  for (VertexId v = 0; v < 3; ++v) {
    for (const VertexId u : live.Neighbors(g.VGlobal(v))) {
      EXPECT_TRUE(live.IsAlive(u));
    }
  }
  EXPECT_EQ(live.NumAlive(Side::kU), 2u);
}

TEST(DynamicGraphTest, CompactPreservesRankOrder) {
  const BipartiteGraph g = ChungLuBipartite(80, 40, 300, 0.7, 0.7, 37);
  DynamicGraph live = MakeLive(g);
  for (VertexId u = 0; u < 40; u += 3) live.Kill(u);
  live.Compact(2);
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    if (!live.IsAlive(w)) continue;
    const auto nbrs = live.Neighbors(w);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(live.Rank(nbrs[i - 1]), live.Rank(nbrs[i]));
    }
    for (const VertexId x : nbrs) EXPECT_TRUE(live.IsAlive(x));
  }
}

TEST(DynamicGraphTest, LiveWedgeCountTracksCompaction) {
  const BipartiteGraph g = CompleteBipartite(4, 3);
  DynamicGraph live = MakeLive(g);
  // In K_{4,3}, u0's wedges: 3 neighbors of degree 4 → 3·3 = 9.
  EXPECT_EQ(live.LiveWedgeCount(0), 9u);
  live.Kill(1);
  live.Compact(1);
  // Now every v has degree 3 → 3·2 = 6.
  EXPECT_EQ(live.LiveWedgeCount(0), 6u);
}

TEST(DynamicGraphTest, RecountCostBoundShrinksAfterKills) {
  const BipartiteGraph g = ChungLuBipartite(100, 60, 400, 0.6, 0.8, 39);
  DynamicGraph live = MakeLive(g);
  const Count before = live.RecountCostBound();
  for (VertexId u = 0; u < 50; ++u) live.Kill(u);
  live.Compact(2);
  const Count after = live.RecountCostBound();
  EXPECT_LT(after, before);
}

TEST(DynamicGraphTest, KillAllYieldsEmptyLiveGraph) {
  const BipartiteGraph g = CompleteBipartite(3, 3);
  DynamicGraph live = MakeLive(g);
  for (VertexId u = 0; u < 3; ++u) live.Kill(u);
  live.Compact(1);
  EXPECT_EQ(live.NumAlive(Side::kU), 0u);
  EXPECT_EQ(live.RecountCostBound(), 0u);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(live.Degree(g.VGlobal(v)), 0u);
  }
}

// -- dirty-list compaction against a full-pass reference ---------------------

/// A random graph with hub vertices on both sides and isolated vertices:
/// `hubs` vertices per side take a quarter of the edges each way, and the
/// last tenth of each side gets no edges at all.
BipartiteGraph HubGraph(VertexId num_u, VertexId num_v, size_t num_edges,
                        VertexId hubs, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const VertexId active_u = num_u - num_u / 10;
  const VertexId active_v = num_v - num_v / 10;
  std::uniform_int_distribution<VertexId> any_u(0, active_u - 1);
  std::uniform_int_distribution<VertexId> any_v(0, active_v - 1);
  std::uniform_int_distribution<VertexId> hub(0, hubs - 1);
  std::vector<BipartiteGraph::Edge> edges;
  for (size_t i = 0; i < num_edges; ++i) {
    switch (i % 4) {
      case 0:
        edges.push_back({hub(rng), any_v(rng)});
        break;
      case 1:
        edges.push_back({any_u(rng), hub(rng)});
        break;
      default:
        edges.push_back({any_u(rng), any_v(rng)});
    }
  }
  return BipartiteGraph::FromEdges(num_u, num_v, std::move(edges));
}

/// The old full-pass Compact(): filters every live list, empties every dead
/// one. Lists start as the view's rank-ordered layout.
void ReferenceCompact(const DynamicGraph& live,
                      std::vector<std::vector<VertexId>>& lists) {
  for (VertexId w = 0; w < live.num_vertices(); ++w) {
    if (!live.IsAlive(w)) {
      lists[w].clear();
      continue;
    }
    std::erase_if(lists[w], [&live](VertexId x) { return !live.IsAlive(x); });
  }
}

TEST(DynamicGraphTest, DirtyListCompactionMatchesFullPass) {
  const std::vector<BipartiteGraph> graphs = {
      HubGraph(3000, 2000, 40000, 8, 51), HubGraph(400, 300, 3000, 3, 53),
      CompleteBipartite(5, 7), Star(30)};
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const BipartiteGraph& g = graphs[gi];
    const VertexId n = g.num_vertices();
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("graph " + std::to_string(gi) + " threads " +
                   std::to_string(threads));
      DynamicGraph live = MakeLive(g);
      std::vector<std::vector<VertexId>> lists(n);
      for (VertexId w = 0; w < n; ++w) {
        const auto nbrs = live.Neighbors(w);
        lists[w].assign(nbrs.begin(), nbrs.end());
      }
      Count bound = live.RecountCostBound(threads);
      std::mt19937_64 rng(57 + gi);
      std::uniform_int_distribution<VertexId> any(0, n - 1);
      for (int step = 0; step < 12; ++step) {
        // Batches from single kills up to a fifth of the graph, on both
        // sides, re-killing dead vertices; steps 3 and 7 kill nothing.
        const size_t batch =
            step == 3 || step == 7 ? 0 : 1 + rng() % (n / 5 + 1);
        for (size_t i = 0; i < batch; ++i) {
          const VertexId w = any(rng);
          live.Kill(w);
          if (i % 3 == 0) live.Kill(w);  // killing twice is a no-op
        }
        live.Compact(threads, &bound);
        ReferenceCompact(live, lists);
        for (VertexId w = 0; w < n; ++w) {
          const auto nbrs = live.Neighbors(w);
          ASSERT_EQ(live.Degree(w), lists[w].size()) << "vertex " << w;
          ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), lists[w].begin()))
              << "vertex " << w;
          ASSERT_LE(live.LiveWedgeCount(w), g.WedgeCount(w)) << "vertex " << w;
        }
        ASSERT_EQ(bound, live.RecountCostBound(threads)) << "step " << step;
        ASSERT_EQ(bound, live.RecountCostBound(1)) << "step " << step;
      }
    }
  }
}

TEST(DynamicGraphTest, CompactWithoutKillsChangesNothing) {
  const BipartiteGraph g = HubGraph(200, 150, 1500, 2, 59);
  DynamicGraph live = MakeLive(g);
  Count bound = live.RecountCostBound();
  const Count before = bound;
  live.Compact(4, &bound);
  EXPECT_EQ(bound, before);
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    EXPECT_EQ(live.Degree(w), g.Degree(w));
  }
}

// -- rank-order scatter against the per-list sort it replaced ---------------

/// Reset's old layout: the source CSR with each list sorted by rank.
std::vector<VertexId> ReferenceRankOrderedAdjacency(
    const BipartiteGraph& g, const std::vector<VertexId>& rank) {
  std::vector<VertexId> adjacency(g.adjacency().begin(), g.adjacency().end());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    std::sort(adjacency.begin() + static_cast<int64_t>(g.offsets()[w]),
              adjacency.begin() + static_cast<int64_t>(g.offsets()[w + 1]),
              [&rank](VertexId a, VertexId b) { return rank[a] < rank[b]; });
  }
  return adjacency;
}

void ExpectLayoutMatchesReference(const DynamicGraph& live,
                                  const BipartiteGraph& g,
                                  const std::vector<VertexId>& rank) {
  const std::vector<VertexId> expected =
      ReferenceRankOrderedAdjacency(g, rank);
  ASSERT_EQ(live.num_vertices(), g.num_vertices());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    ASSERT_EQ(live.Degree(w), g.Degree(w)) << "vertex " << w;
    ASSERT_EQ(live.Rank(w), rank[w]);
    ASSERT_TRUE(live.IsAlive(w));
    const auto nbrs = live.Neighbors(w);
    ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(),
                           expected.begin() +
                               static_cast<int64_t>(g.offsets()[w])))
        << "vertex " << w;
  }
}

TEST(DynamicGraphTest, ResetMatchesPerListRankSort) {
  const std::vector<BipartiteGraph> graphs = {
      BipartiteGraph::FromEdges(0, 0, {}), BipartiteGraph::FromEdges(3, 0, {}),
      BipartiteGraph::FromEdges(1, 1, {{0, 0}}), CompleteBipartite(6, 4),
      Star(40), ChungLuBipartite(200, 90, 900, 0.8, 0.6, 41),
      ChungLuBipartite(50, 400, 700, 0.0, 1.0, 43), CompleteBipartite(2, 3)};
  std::mt19937_64 rng(45);
  // One view reset across every graph: stale lists from a larger graph must
  // not leak into a smaller one.
  DynamicGraph live;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    SCOPED_TRACE("graph " + std::to_string(i));
    // The degree priority the engine uses, and an arbitrary permutation:
    // the scatter relies only on `rank` being one.
    std::vector<VertexId> shuffled(g.num_vertices());
    std::iota(shuffled.begin(), shuffled.end(), 0);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const std::vector<VertexId>& rank :
         {g.DegreeDescendingRanks(), shuffled}) {
      live.Reset(g, rank);
      ExpectLayoutMatchesReference(live, g, rank);
      ExpectLayoutMatchesReference(DynamicGraph(g, rank), g, rank);
    }
  }
}

}  // namespace
}  // namespace receipt

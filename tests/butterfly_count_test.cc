// Tests for the vertex-priority butterfly counting kernel (Alg. 1):
// cross-validation against the brute-force reference on parameterized
// random-graph sweeps, closed forms, live-subgraph counting, the traversal
// bound, and the U-only scope RECEIPT counts with.

#include "butterfly/butterfly_count.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "engine/counting.h"
#include "engine/workspace.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"

namespace receipt {
namespace {

TEST(ButterflyCountTest, TinyHandComputedGraph) {
  // u0,u1 share v0,v1 (one butterfly); u2 hangs off v1.
  const BipartiteGraph g = BipartiteGraph::FromEdges(
      3, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 1}});
  const auto support = CountButterflies(g, 1);
  EXPECT_EQ(support[0], 1u);
  EXPECT_EQ(support[1], 1u);
  EXPECT_EQ(support[2], 0u);
  EXPECT_EQ(support[g.VGlobal(0)], 1u);
  EXPECT_EQ(support[g.VGlobal(1)], 1u);
  EXPECT_EQ(TotalButterflies(g, 1), 1u);
}

TEST(ButterflyCountTest, CompleteBipartiteClosedForm) {
  for (const auto& [a, b] : {std::pair{2, 2}, {3, 5}, {6, 4}, {8, 8}}) {
    const BipartiteGraph g = CompleteBipartite(a, b);
    const auto support = CountButterflies(g, 2);
    for (int u = 0; u < a; ++u) {
      EXPECT_EQ(support[u], Count(a - 1) * Choose2(b)) << a << "x" << b;
    }
    for (int v = 0; v < b; ++v) {
      EXPECT_EQ(support[g.VGlobal(v)], Count(b - 1) * Choose2(a));
    }
    EXPECT_EQ(TotalButterflies(g, 2), Choose2(a) * Choose2(b));
  }
}

TEST(ButterflyCountTest, StarAndEmpty) {
  EXPECT_EQ(TotalButterflies(Star(50), 1), 0u);
  const BipartiteGraph empty = BipartiteGraph::FromEdges(4, 4, {});
  const auto support = CountButterflies(empty, 1);
  for (const Count c : support) EXPECT_EQ(c, 0u);
}

TEST(ButterflyCountTest, SupportSumIsFourTimesButterflies) {
  const BipartiteGraph g = ChungLuBipartite(200, 150, 900, 0.6, 0.6, 51);
  const auto support = CountButterflies(g, 2);
  Count sum_u = 0;
  Count sum_v = 0;
  for (VertexId u = 0; u < g.num_u(); ++u) sum_u += support[u];
  for (VertexId v = g.num_u(); v < g.num_vertices(); ++v) {
    sum_v += support[v];
  }
  // Each butterfly has two U and two V members.
  EXPECT_EQ(sum_u, sum_v);
  EXPECT_EQ(sum_u / 2, TotalButterflies(g, 2));
}

TEST(ButterflyCountTest, WedgeTraversalWithinPriorityBound) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1200, 0.8, 0.8, 53);
  uint64_t wedges = 0;
  CountButterflies(g, 2, &wedges);
  // The vertex-priority kernel traverses at most Σ min(d_u, d_v) wedges.
  EXPECT_LE(wedges, g.CountingCostBound());
  EXPECT_GT(wedges, 0u);
}

TEST(ButterflyCountTest, CountsRespectDeadVertices) {
  // Counting on the live view after kills must equal counting the induced
  // subgraph from scratch (the HUC re-count correctness requirement).
  const BipartiteGraph g = ChungLuBipartite(80, 60, 350, 0.5, 0.5, 57);
  DynamicGraph live(g, g.DegreeDescendingRanks());
  std::vector<VertexId> kept;
  for (VertexId u = 0; u < g.num_u(); ++u) {
    if (u % 3 == 0) {
      live.Kill(u);
    } else {
      kept.push_back(u);
    }
  }
  // Without compaction (dead entries skipped inline).
  std::vector<Count> uncompacted(g.num_vertices(), 0);
  PerVertexButterflyCount(live, 2, uncompacted);
  // With compaction.
  live.Compact(2);
  std::vector<Count> compacted(g.num_vertices(), 0);
  PerVertexButterflyCount(live, 2, compacted);

  // Reference: rebuild the surviving graph.
  std::vector<BipartiteGraph::Edge> edges;
  for (const VertexId u : kept) {
    for (const VertexId gv : g.Neighbors(u)) {
      edges.push_back({u, g.Local(gv)});
    }
  }
  const BipartiteGraph sub =
      BipartiteGraph::FromEdges(g.num_u(), g.num_v(), std::move(edges));
  const auto expected = CountButterflies(sub, 1);
  for (VertexId u : kept) {
    EXPECT_EQ(uncompacted[u], expected[u]) << "u" << u;
    EXPECT_EQ(compacted[u], expected[u]) << "u" << u;
  }
}

TEST(ButterflyCountTest, SharedButterfliesReference) {
  const BipartiteGraph g = SmallExampleGraph();
  // Core pair u0,u1 share all four V vertices: C(4,2) = 6 butterflies.
  EXPECT_EQ(SharedButterflies(g, 0, 1), 6u);
  // u0 and u4 share v0,v1: one butterfly.
  EXPECT_EQ(SharedButterflies(g, 0, 4), 1u);
  // u0 and u7 share nothing.
  EXPECT_EQ(SharedButterflies(g, 0, 7), 0u);
}

// -- U-only scope ------------------------------------------------------------

/// Counts the live view of `g` in both scopes on `threads` threads and on
/// one workspace (an FD task's HUC count), and checks that the U-only
/// supports equal the both-sides kernel's U part, that V entries stay 0,
/// and that every variant traverses the same wedges. A non-null `brute`
/// is the reference both-sides answer.
void ExpectUOnlyMatches(const BipartiteGraph& g,
                        const std::vector<Count>* brute, int threads) {
  const DynamicGraph live(g, g.DegreeDescendingRanks());
  const VertexId n = g.num_vertices();
  engine::WorkspacePool pool;
  engine::PeelWorkspace ws;
  std::vector<Count> both(n), u_only(n), seq_both(n), seq_u_only(n);
  const uint64_t wedges =
      engine::CountVertexButterflies(live, pool.Team(threads), both);
  EXPECT_EQ(engine::CountVertexButterflies(live, pool.Team(threads), u_only,
                                           engine::CountScope::kUOnly),
            wedges);
  const std::span<engine::PeelWorkspace> one(&ws, 1);
  EXPECT_EQ(engine::CountVertexButterflies(live, one, seq_both), wedges);
  EXPECT_EQ(engine::CountVertexButterflies(live, one, seq_u_only,
                                           engine::CountScope::kUOnly),
            wedges);
  if (brute != nullptr) EXPECT_EQ(both, *brute);
  EXPECT_EQ(seq_both, both);
  for (VertexId w = 0; w < n; ++w) {
    const Count expected = g.IsU(w) ? both[w] : 0;
    ASSERT_EQ(u_only[w], expected) << "vertex " << w;
    ASSERT_EQ(seq_u_only[w], expected) << "vertex " << w;
  }
}

TEST(ButterflyCountTest, UOnlyScopeMatchesOnRandomGraphs) {
  const std::vector<BipartiteGraph> graphs = {
      ChungLuBipartite(60, 40, 450, 0.0, 0.0, 61),
      ChungLuBipartite(80, 30, 500, 0.6, 0.9, 62),
      ChungLuBipartite(30, 90, 500, 0.9, 0.2, 63)};
  for (size_t i = 0; i < graphs.size(); ++i) {
    const std::vector<Count> brute = BruteForceButterflyCount(graphs[i]);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("graph " + std::to_string(i) + " threads " +
                   std::to_string(threads));
      ExpectUOnlyMatches(graphs[i], &brute, threads);
    }
  }
}

/// A random graph plus `hubs` vertices on each side adjacent to the whole
/// other side: every start point's wedges fan into a few mid points, so the
/// kernel's per-mid-point fold sums long runs of the wedge list.
BipartiteGraph HubGraph(VertexId num_u, VertexId num_v, uint64_t m,
                        VertexId hubs, uint64_t seed) {
  std::vector<BipartiteGraph::Edge> edges =
      ChungLuBipartite(num_u, num_v, m, 0.5, 0.5, seed).ToEdges();
  for (VertexId h = 0; h < hubs; ++h) {
    for (VertexId v = 0; v < num_v; ++v) edges.push_back({h, v});
    for (VertexId u = 0; u < num_u; ++u) edges.push_back({u, h});
  }
  return BipartiteGraph::FromEdges(num_u, num_v, std::move(edges));
}

TEST(ButterflyCountTest, FoldedMidPointCreditsMatchBruteForceUnderFanIn) {
  const std::vector<BipartiteGraph> graphs = {
      HubGraph(40, 30, 120, 1, 71), HubGraph(25, 60, 200, 3, 72),
      HubGraph(70, 15, 100, 2, 73), CompleteBipartite(12, 9)};
  for (size_t i = 0; i < graphs.size(); ++i) {
    const std::vector<Count> brute = BruteForceButterflyCount(graphs[i]);
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("graph " + std::to_string(i) + " threads " +
                   std::to_string(threads));
      ExpectUOnlyMatches(graphs[i], &brute, threads);
    }
  }
}

TEST(ButterflyCountTest, FoldedMidPointCreditsSkipDeadEndPoints) {
  // Uncompacted dead entries sit inside a mid point's run of the wedge
  // list; the fold must credit exactly the live survivors.
  const BipartiteGraph g = HubGraph(30, 24, 90, 2, 75);
  DynamicGraph live(g, g.DegreeDescendingRanks());
  std::vector<BipartiteGraph::Edge> kept;
  for (VertexId w = 0; w < g.num_vertices(); w += 5) live.Kill(w);
  for (VertexId u = 0; u < g.num_u(); ++u) {
    if (!live.IsAlive(u)) continue;
    for (const VertexId gv : g.Neighbors(u)) {
      if (live.IsAlive(gv)) kept.push_back({u, g.Local(gv)});
    }
  }
  const std::vector<Count> expected = BruteForceButterflyCount(
      BipartiteGraph::FromEdges(g.num_u(), g.num_v(), std::move(kept)));
  engine::WorkspacePool pool;
  for (const auto scope :
       {engine::CountScope::kBothSides, engine::CountScope::kUOnly}) {
    std::vector<Count> support(g.num_vertices());
    engine::CountVertexButterflies(live, pool.Team(3), support, scope);
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      if (!live.IsAlive(w)) continue;
      const bool credited = scope == engine::CountScope::kBothSides || g.IsU(w);
      ASSERT_EQ(support[w], credited ? expected[w] : 0) << "vertex " << w;
    }
  }
}

// The analogues are too large for the brute-force reference; the random
// sweeps above and below already tie the both-sides kernel to it.
TEST(ButterflyCountTest, UOnlyScopeMatchesOnAnalogues) {
  for (const char* name : {"lj", "de"}) {
    const BipartiteGraph g = MakePaperAnalogue(name);
    SCOPED_TRACE(name);
    ExpectUOnlyMatches(g, nullptr, 4);
  }
}

// -- parameterized kernel-vs-brute-force sweep -----------------------------

using KernelSweepParam =
    std::tuple<VertexId, VertexId, uint64_t, double, double, uint64_t, int>;

class KernelSweep : public testing::TestWithParam<KernelSweepParam> {};

TEST_P(KernelSweep, MatchesBruteForce) {
  const auto [nu, nv, m, au, av, seed, threads] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(nu, nv, m, au, av, seed);
  const auto fast = CountButterflies(g, threads);
  const auto slow = BruteForceButterflyCount(g);
  ASSERT_EQ(fast.size(), slow.size());
  for (VertexId w = 0; w < g.num_vertices(); ++w) {
    ASSERT_EQ(fast[w], slow[w]) << "vertex " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelSweep,
    testing::Values(
        KernelSweepParam{30, 20, 100, 0.0, 0.0, 1, 1},
        KernelSweepParam{30, 20, 100, 0.0, 0.0, 2, 2},
        KernelSweepParam{50, 50, 400, 0.5, 0.5, 3, 2},
        KernelSweepParam{50, 50, 400, 0.5, 0.5, 4, 4},
        KernelSweepParam{100, 30, 500, 0.9, 0.9, 5, 2},
        KernelSweepParam{30, 100, 500, 0.9, 0.1, 6, 2},
        KernelSweepParam{80, 80, 800, 0.3, 0.7, 7, 3},
        KernelSweepParam{120, 60, 700, 0.6, 0.6, 8, 2},
        KernelSweepParam{10, 10, 90, 0.0, 0.0, 9, 1},
        KernelSweepParam{200, 10, 600, 0.2, 1.1, 10, 2}));

}  // namespace
}  // namespace receipt

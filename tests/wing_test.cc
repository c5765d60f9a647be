// Tests for the wing decomposition extension (§7): per-edge butterfly
// counting vs brute force, edge peeling vs a naive re-counting reference.

#include "wing/wing_decomposition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "engine/peel_kernels.h"
#include "engine/workspace.h"
#include "graph/generators.h"
#include "wing/edge_topology.h"

namespace receipt {
namespace {

/// Ground-truth wing decomposition: rebuild the surviving edge set and
/// re-count per-edge butterflies before every peel. O(m² · counting).
std::vector<Count> NaiveWingDecomposition(const BipartiteGraph& g) {
  const auto all_edges = g.ToEdges();
  const uint64_t m = g.num_edges();
  std::vector<uint8_t> alive(m, 1);
  std::vector<Count> wing(m, 0);
  Count theta = 0;
  for (uint64_t step = 0; step < m; ++step) {
    std::vector<BipartiteGraph::Edge> survivors;
    std::vector<uint64_t> ids;
    for (uint64_t e = 0; e < m; ++e) {
      if (alive[e]) {
        survivors.push_back(all_edges[e]);
        ids.push_back(e);
      }
    }
    const BipartiteGraph sub =
        BipartiteGraph::FromEdges(g.num_u(), g.num_v(), survivors);
    // survivors are sorted (ToEdges order) so sub's edge ids align with
    // the `ids` positions.
    const std::vector<Count> support = BruteForcePerEdgeCount(sub);
    uint64_t best = 0;
    for (uint64_t i = 1; i < ids.size(); ++i) {
      if (support[i] < support[best]) best = i;
    }
    theta = std::max(theta, support[best]);
    wing[ids[best]] = theta;
    alive[ids[best]] = 0;
  }
  return wing;
}

TEST(WingTest, EdgeSourceULocatesOwner) {
  const BipartiteGraph g = ChungLuBipartite(40, 30, 150, 0.5, 0.5, 161);
  for (VertexId u = 0; u < g.num_u(); ++u) {
    const EdgeOffset base = g.NeighborOffset(u);
    for (uint64_t j = 0; j < g.Degree(u); ++j) {
      EXPECT_EQ(EdgeSourceU(g, base + j), u);
    }
  }
}

TEST(WingTest, PerEdgeCountCompleteBipartiteClosedForm) {
  // In K_{a,b} every edge participates in (a−1)(b−1) butterflies.
  const BipartiteGraph g = CompleteBipartite(5, 4);
  const std::vector<Count> counts = PerEdgeButterflyCount(g, 2);
  for (const Count c : counts) EXPECT_EQ(c, 4u * 3u);
}

TEST(WingTest, PerEdgeCountZeroOnStar) {
  const BipartiteGraph g = Star(10);
  for (const Count c : PerEdgeButterflyCount(g, 1)) EXPECT_EQ(c, 0u);
}

TEST(WingTest, WingNumbersCompleteBipartite) {
  const BipartiteGraph g = CompleteBipartite(4, 5);
  const WingResult r = WingDecompose(g, 2);
  for (const Count w : r.wing_numbers) EXPECT_EQ(w, 3u * 4u);
}

TEST(WingTest, WingNumberNeverExceedsInitialCount) {
  const BipartiteGraph g = ChungLuBipartite(60, 40, 300, 0.6, 0.6, 163);
  const std::vector<Count> counts = PerEdgeButterflyCount(g, 1);
  const WingResult r = WingDecompose(g, 1);
  for (uint64_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(r.wing_numbers[e], counts[e]) << "edge " << e;
  }
}

using CountSweepParam =
    std::tuple<VertexId, VertexId, uint64_t, double, double, uint64_t>;

/// Σ d(w)² over one side of g.
Count SideSquares(const BipartiteGraph& g, bool u_side) {
  Count total = 0;
  const VertexId first = u_side ? 0 : g.num_u();
  const VertexId last = u_side ? g.num_u() : g.num_vertices();
  for (VertexId w = first; w < last; ++w) {
    total += static_cast<Count>(g.Degree(w)) * g.Degree(w);
  }
  return total;
}

// Graphs on which the count starts from V (seeds 1, 2, 3 and 5: their
// larger U side has the smaller Σ d²) and from U (seeds 4, 6, 7 and 8).
const CountSweepParam kCountGraphs[] = {
    {20, 15, 80, 0.0, 0.0, 1},  {30, 20, 150, 0.6, 0.6, 2},
    {40, 10, 150, 0.9, 0.3, 3}, {25, 25, 200, 0.4, 0.4, 4},
    {60, 40, 300, 0.7, 0.7, 5}, {10, 40, 150, 0.3, 0.9, 6},
    {15, 45, 200, 0.2, 0.8, 7}, {12, 30, 180, 0.0, 0.6, 8}};

class WingCountSweep
    : public testing::TestWithParam<std::tuple<CountSweepParam, int>> {};

TEST_P(WingCountSweep, PerEdgeCountMatchesBruteForce) {
  const auto [graph_param, threads] = GetParam();
  const auto [nu, nv, m, au, av, seed] = graph_param;
  const BipartiteGraph g = ChungLuBipartite(nu, nv, m, au, av, seed);
  uint64_t wedges = 0;
  const std::vector<Count> fast = PerEdgeButterflyCount(g, threads, &wedges);
  const std::vector<Count> slow = BruteForcePerEdgeCount(g);
  ASSERT_EQ(fast.size(), slow.size());
  for (uint64_t e = 0; e < fast.size(); ++e) {
    ASSERT_EQ(fast[e], slow[e]) << "edge " << e;
  }
  // Each start point walks its 2-hop neighbourhood twice, so the cheaper
  // side costs twice the other side's Σ d².
  EXPECT_EQ(wedges, 2 * std::min(SideSquares(g, /*u_side=*/true),
                                 SideSquares(g, /*u_side=*/false)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WingCountSweep,
                         testing::Combine(testing::ValuesIn(kCountGraphs),
                                          testing::Values(1, 4)));

// The sweep above must take both start sides: its wedge check pins the
// side each graph starts from.
TEST(WingCountSideTest, SweepStartsFromBothSides) {
  int from_u = 0;
  int from_v = 0;
  for (const auto& [nu, nv, m, au, av, seed] : kCountGraphs) {
    const BipartiteGraph g = ChungLuBipartite(nu, nv, m, au, av, seed);
    ++(SideSquares(g, /*u_side=*/false) <= SideSquares(g, /*u_side=*/true)
           ? from_u
           : from_v);
  }
  EXPECT_GT(from_u, 0);
  EXPECT_GT(from_v, 0);
}

class WingPeelSweep : public testing::TestWithParam<CountSweepParam> {};

TEST_P(WingPeelSweep, MatchesNaiveReference) {
  const auto [nu, nv, m, au, av, seed] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(nu, nv, m, au, av, seed);
  const WingResult r = WingDecompose(g, 1);
  const std::vector<Count> expected = NaiveWingDecomposition(g);
  ASSERT_EQ(r.wing_numbers.size(), expected.size());
  for (uint64_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(r.wing_numbers[e], expected[e]) << "edge " << e;
  }
}

// The naive reference is O(m²·counting): keep these tiny.
INSTANTIATE_TEST_SUITE_P(
    Sweep, WingPeelSweep,
    testing::Values(CountSweepParam{8, 6, 24, 0.0, 0.0, 11},
                    CountSweepParam{10, 8, 35, 0.5, 0.5, 12},
                    CountSweepParam{12, 6, 40, 0.8, 0.2, 13},
                    CountSweepParam{9, 9, 45, 0.3, 0.3, 14}));

/// Brute-force reference for one PeelEdgeButterflies(e) call: every
/// butterfly {e = (u, v), f = (u2, v), g2 = (u2, v2), h = (u, v2)} with no
/// dead edge, skipped when a peeling edge of lower id than e is in it, and
/// otherwise applied to each of f, g2, h that is still alive.
std::vector<EdgeOffset> BruteForceApplied(const BipartiteGraph& g,
                                          const std::vector<uint8_t>& state,
                                          EdgeOffset e) {
  const auto edge_id = [&g](VertexId u, VertexId gv) -> int64_t {
    const auto nbrs = g.Neighbors(u);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), gv);
    if (it == nbrs.end() || *it != gv) return -1;
    return static_cast<int64_t>(g.NeighborOffset(u) + (it - nbrs.begin()));
  };
  const VertexId u = EdgeSourceU(g, e);
  const VertexId gv = g.adjacency()[e];
  std::vector<EdgeOffset> applied;
  for (const VertexId gv2 : g.Neighbors(u)) {
    if (gv2 == gv) continue;
    for (const VertexId u2 : g.Neighbors(gv)) {
      if (u2 == u) continue;
      const int64_t g2 = edge_id(u2, gv2);
      if (g2 < 0) continue;
      const EdgeOffset others[3] = {static_cast<EdgeOffset>(edge_id(u2, gv)),
                                    static_cast<EdgeOffset>(g2),
                                    static_cast<EdgeOffset>(edge_id(u, gv2))};
      bool counted = true;
      for (const EdgeOffset x : others) {
        if (state[x] == engine::kEdgeDead ||
            (state[x] == engine::kEdgePeeling && x < e)) {
          counted = false;
        }
      }
      if (!counted) continue;
      for (const EdgeOffset x : others) {
        if (state[x] == engine::kEdgeAlive) applied.push_back(x);
      }
    }
  }
  std::sort(applied.begin(), applied.end());
  return applied;
}

// The wing peel kernel walks from whichever end of the edge is cheaper.
// Both walks must apply exactly the butterflies the priority rule assigns
// to the edge, once each, and leave the mark array zeroed. With every edge
// alive the wedges it reports are the chosen side's whole walk.
TEST(WingKernelTest, EitherWalkAppliesEveryButterflyOnce) {
  const std::vector<BipartiteGraph> graphs = {
      RandomBipartite(30, 25, 220, 11),
      RandomBipartite(20, 40, 260, 12),
      ChungLuBipartite(60, 40, 400, 0.9, 0.2, 13),  // hubs in U
      ChungLuBipartite(40, 60, 400, 0.2, 0.9, 14),  // hubs in V
      ChungLuBipartite(50, 50, 450, 0.8, 0.8, 15),
  };
  uint64_t via_v = 0;
  uint64_t via_u = 0;
  std::mt19937_64 rng(17);
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const BipartiteGraph& g = graphs[gi];
    engine::PeelWorkspace ws;
    ws.EnsureMarkCapacity(g.num_vertices());
    for (const bool all_alive : {true, false}) {
      EdgeTopology topo = BuildEdgeTopology(g);
      std::vector<uint8_t> state(g.num_edges(), engine::kEdgeAlive);
      if (!all_alive) {
        for (uint8_t& s : state) {
          const uint64_t roll = rng() % 10;
          s = roll < 3   ? engine::kEdgeDead
              : roll < 5 ? engine::kEdgePeeling
                         : engine::kEdgeAlive;
        }
        // The kernel's precondition, kept by every caller: dead edges are
        // out of the runs.
        for (VertexId w = 0; w < topo.num_vertices(); ++w) {
          topo.CompactRun(w, [&state](uint32_t x) {
            return state[x] == engine::kEdgeDead;
          });
        }
      }
      for (EdgeOffset e = 0; e < g.num_edges(); ++e) {
        if (state[e] == engine::kEdgeDead) continue;
        SCOPED_TRACE(::testing::Message()
                     << "graph " << gi << " edge " << e
                     << (all_alive ? " all alive" : " mixed states"));
        const uint8_t saved = state[e];
        state[e] = engine::kEdgePeeling;  // as every caller does
        std::vector<EdgeOffset> applied;
        const uint64_t wedges = engine::PeelEdgeButterflies(
            topo, state, e, ws,
            [&applied](EdgeOffset x) { applied.push_back(x); });
        std::sort(applied.begin(), applied.end());
        EXPECT_EQ(applied, BruteForceApplied(g, state, e));
        state[e] = saved;

        const VertexId u = topo.source[e];
        const VertexId gv = topo.target[e];
        const bool v_walk = engine::PeelWalksViaV(topo, e);
        ++(v_walk ? via_v : via_u);
        if (all_alive) {
          EXPECT_EQ(wedges, v_walk ? topo.walk[gv] - g.Degree(u)
                                   : topo.walk[u] - g.Degree(gv));
        }
        ASSERT_TRUE(std::all_of(ws.edge_mark.begin(), ws.edge_mark.end(),
                                [](uint32_t m) { return m == 0; }));
      }
    }
  }
  EXPECT_GT(via_v, 0u);
  EXPECT_GT(via_u, 0u);
}

}  // namespace
}  // namespace receipt

// Tests for RECEIPT CD (Alg. 3): partition/range soundness (Lemmas 3-4,
// Theorem 1), ⊲⊳init semantics, adaptive range behavior, and invariance of
// the partition under the HUC/DGM workload optimizations.

#include "tip/receipt_cd.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "butterfly/butterfly_count.h"
#include "engine/graph_maintenance.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt.h"

namespace receipt {
namespace {

TipOptions Options(int partitions, int threads, bool huc = true,
                   bool dgm = true) {
  TipOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.use_huc = huc;
  options.use_dgm = dgm;
  return options;
}

TEST(ReceiptCdTest, SubsetsPartitionU) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1200, 0.5, 0.5, 71);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, Options(10, 2), &stats);
  std::set<VertexId> seen;
  for (const auto& subset : cd.subsets) {
    for (const VertexId u : subset) {
      EXPECT_TRUE(seen.insert(u).second) << "duplicate vertex " << u;
    }
  }
  EXPECT_EQ(seen.size(), g.num_u());
  // subset_of agrees with the explicit lists.
  for (uint32_t i = 0; i < cd.subsets.size(); ++i) {
    for (const VertexId u : cd.subsets[i]) {
      EXPECT_EQ(cd.subset_of[u], i);
    }
  }
}

TEST(ReceiptCdTest, BoundsMonotoneAndRangesDisjoint) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1200, 0.7, 0.7, 73);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, Options(12, 2), &stats);
  ASSERT_EQ(cd.bounds.size(), cd.subsets.size() + 1);
  EXPECT_EQ(cd.bounds.front(), 0u);
  for (size_t i = 0; i + 1 < cd.bounds.size(); ++i) {
    EXPECT_LT(cd.bounds[i], cd.bounds[i + 1]);
  }
}

TEST(ReceiptCdTest, AtMostPPlusOneSubsets) {
  const BipartiteGraph g = ChungLuBipartite(400, 250, 1500, 0.6, 0.9, 79);
  for (const int p : {1, 3, 8, 50}) {
    PeelStats stats;
    const CdResult cd = ReceiptCd(g, Options(p, 2), &stats);
    EXPECT_LE(cd.subsets.size(), static_cast<size_t>(p) + 1) << "P=" << p;
    EXPECT_EQ(stats.num_subsets, cd.subsets.size());
  }
}

TEST(ReceiptCdTest, TipNumbersRespectRanges) {
  // Theorem 1 via ground truth: θ_u from BUP must land in u's CD range.
  const BipartiteGraph g = ChungLuBipartite(250, 150, 1000, 0.6, 0.6, 83);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, Options(9, 3), &stats);
  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);
  for (VertexId u = 0; u < g.num_u(); ++u) {
    const uint32_t s = cd.subset_of[u];
    EXPECT_GE(bup.tip_numbers[u], cd.bounds[s]) << "u" << u;
    EXPECT_LT(bup.tip_numbers[u], cd.bounds[s + 1]) << "u" << u;
  }
}

TEST(ReceiptCdTest, InitSupportSemantics) {
  // ⊲⊳init_u must equal the number of butterflies u shares with vertices in
  // its own or higher subsets (the support after all lower subsets peeled).
  const BipartiteGraph g = ChungLuBipartite(120, 90, 600, 0.5, 0.5, 89);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, Options(6, 2), &stats);
  for (VertexId u = 0; u < g.num_u(); ++u) {
    const uint32_t s = cd.subset_of[u];
    Count expected = 0;
    for (VertexId u2 = 0; u2 < g.num_u(); ++u2) {
      if (u2 != u && cd.subset_of[u2] >= s) {
        expected += SharedButterflies(g, u, u2);
      }
    }
    // ⊲⊳init is clamped from below by the range floors applied during
    // peeling, so it can exceed the true shared count only when the true
    // count dropped below the floor of an earlier range.
    if (expected >= cd.bounds[s]) {
      EXPECT_EQ(cd.init_support[u], expected) << "u" << u;
    } else {
      EXPECT_GE(cd.init_support[u], expected) << "u" << u;
      EXPECT_LE(cd.init_support[u], cd.bounds[s]) << "u" << u;
    }
  }
}

TEST(ReceiptCdTest, PartitionInvariantUnderOptimizations) {
  // HUC and DGM change the work, never the partition (Lemma 1: support
  // values depend only on the peeled set).
  const BipartiteGraph g = ChungLuBipartite(300, 100, 1100, 0.4, 0.9, 97);
  PeelStats s00, s01, s10, s11;
  const CdResult base = ReceiptCd(g, Options(8, 2, false, false), &s00);
  const CdResult dgm = ReceiptCd(g, Options(8, 2, false, true), &s01);
  const CdResult huc = ReceiptCd(g, Options(8, 2, true, false), &s10);
  const CdResult both = ReceiptCd(g, Options(8, 2, true, true), &s11);
  EXPECT_EQ(base.subset_of, dgm.subset_of);
  EXPECT_EQ(base.subset_of, huc.subset_of);
  EXPECT_EQ(base.subset_of, both.subset_of);
  EXPECT_EQ(base.bounds, both.bounds);
  EXPECT_EQ(base.init_support, both.init_support);
}

TEST(ReceiptCdTest, HucReducesWedgesOnSkewedGraph) {
  // The "tr"-style regime: peeling wedges ≫ counting wedges, so HUC must
  // fire and cut CD wedge traversal.
  const BipartiteGraph g = ChungLuBipartite(2000, 500, 8000, 0.4, 1.0, 101);
  PeelStats with_huc, without_huc;
  ReceiptCd(g, Options(10, 2, true, true), &with_huc);
  ReceiptCd(g, Options(10, 2, false, false), &without_huc);
  EXPECT_GT(with_huc.huc_recounts, 0u);
  EXPECT_LT(with_huc.wedges_cd, without_huc.wedges_cd);
}

/// Four spokes v0..v3 with eight degree-1 leaves each, two hubs h1, h2 on
/// every spoke, and a separate K_{3,4} block. Leaves (support 0) die first;
/// once DGM compacts them away each spoke has degree 2, so a hub's static
/// wedge count (4 · 9) overstates its live one (4 · 1) ninefold.
BipartiteGraph SpokeGraph() {
  std::vector<BipartiteGraph::Edge> edges;
  VertexId u = 0;
  for (VertexId spoke = 0; spoke < 4; ++spoke) {
    for (int leaf = 0; leaf < 8; ++leaf) edges.push_back({u++, spoke});
  }
  for (int hub = 0; hub < 2; ++hub, ++u) {
    for (VertexId spoke = 0; spoke < 4; ++spoke) edges.push_back({u, spoke});
  }
  for (int x = 0; x < 3; ++x, ++u) {
    for (VertexId y = 0; y < 4; ++y) edges.push_back({u, 4 + y});
  }
  return BipartiteGraph::FromEdges(u, 8, std::move(edges));
}

TEST(ReceiptCdTest, HucDecidesOnLiveWedges) {
  const BipartiteGraph g = SpokeGraph();
  const VertexId hubs[] = {32, 33};

  // The rule itself: after the leaves die and are compacted away, the hubs'
  // static cost exceeds C_rcnt but their live cost does not.
  DynamicGraph live(g, g.DegreeDescendingRanks());
  engine::GraphMaintenance maintenance(live, /*use_huc=*/true,
                                       /*use_dgm=*/true, g.num_edges());
  std::vector<VertexId> leaves(32);
  std::iota(leaves.begin(), leaves.end(), 0);
  Count leaf_cost = 0;
  for (const VertexId leaf : leaves) {
    live.Kill(leaf);
    leaf_cost += g.WedgeCount(leaf);
  }
  // Nothing is compacted yet, so the leaves' live cost is their static one
  // (32 · 9), above the initial bound 32 · 1 + 8 · 4 + 36.
  EXPECT_EQ(maintenance.recount_bound(), 100u);
  EXPECT_TRUE(maintenance.ShouldRecount(leaf_cost, leaves));
  maintenance.BeginRecount();
  // Hub edges 8 · min(4, 2) + block edges 12 · min(4, 3).
  ASSERT_EQ(maintenance.recount_bound(), 16u + 36u);
  ASSERT_EQ(maintenance.recount_bound(), live.RecountCostBound());
  for (const VertexId h : hubs) live.Kill(h);
  const Count static_cost = g.WedgeCount(32) + g.WedgeCount(33);
  EXPECT_EQ(static_cost, 72u);
  EXPECT_EQ(live.LiveWedgeCount(32) + live.LiveWedgeCount(33), 8u);
  EXPECT_FALSE(maintenance.ShouldRecount(static_cost, hubs));

  // End to end, P = 3: the ranges are {leaves}, {hubs}, {block}. Priced by
  // static cost, CD would re-count the hub round too, and FD a late leaf pop
  // (compactions shrink the leaf subgraph's C_rcnt below a leaf's static
  // count). Priced by live wedges, only CD's leaf round re-counts.
  const TipResult bup = BupDecompose(g, Options(3, 1));
  PeelStats plain_stats;
  const CdResult plain =
      ReceiptCd(g, Options(3, 1, /*huc=*/false, /*dgm=*/false), &plain_stats);
  ASSERT_EQ(plain.subsets.size(), 3u);
  EXPECT_EQ(plain.subsets[1], (std::vector<VertexId>{32, 33}));
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PeelStats stats;
    const CdResult cd = ReceiptCd(g, Options(3, threads), &stats);
    EXPECT_EQ(stats.huc_recounts, 1u);
    EXPECT_EQ(cd.subsets, plain.subsets);
    EXPECT_EQ(cd.subset_of, plain.subset_of);
    EXPECT_EQ(cd.bounds, plain.bounds);
    EXPECT_EQ(cd.init_support, plain.init_support);
    EXPECT_EQ(cd.predicted_costs, plain.predicted_costs);
    EXPECT_EQ(stats.sync_rounds, plain_stats.sync_rounds);

    const TipResult receipt = ReceiptDecompose(g, Options(3, threads));
    EXPECT_EQ(receipt.stats.huc_recounts, 1u);  // CD's one; FD makes none
    EXPECT_EQ(receipt.tip_numbers, bup.tip_numbers);
  }
}

TEST(ReceiptCdTest, SyncRoundsWellBelowVertexCount) {
  const BipartiteGraph g = ChungLuBipartite(500, 300, 2000, 0.6, 0.6, 103);
  PeelStats stats;
  ReceiptCd(g, Options(10, 2), &stats);
  EXPECT_LT(stats.sync_rounds, g.num_u() / 2);
  EXPECT_GT(stats.sync_rounds, 0u);
}

TEST(ReceiptCdTest, SingletonPartitionTakesEverything) {
  const BipartiteGraph g = ChungLuBipartite(100, 60, 400, 0.3, 0.3, 107);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, Options(1, 2), &stats);
  // P=1: one range absorbs every vertex (possibly one leftover subset).
  EXPECT_LE(cd.subsets.size(), 2u);
  size_t total = 0;
  for (const auto& s : cd.subsets) total += s.size();
  EXPECT_EQ(total, g.num_u());
}

TEST(ReceiptCdTest, ButterflyFreeGraphSingleRange) {
  const BipartiteGraph g = Star(40);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, Options(5, 2), &stats);
  size_t total = 0;
  for (const auto& s : cd.subsets) total += s.size();
  EXPECT_EQ(total, 40u);
  // All supports are 0 ⇒ everything fits in the first range.
  EXPECT_EQ(cd.subsets[0].size(), 40u);
}

}  // namespace
}  // namespace receipt

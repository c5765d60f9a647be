// Unit tests for the CSR bipartite graph substrate.

#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "graph/generators.h"

namespace receipt {
namespace {

using Edge = BipartiteGraph::Edge;

BipartiteGraph MakeSmall() {
  // U = {0,1,2}, V = {0,1}; edges: (0,0) (0,1) (1,0) (2,1).
  return BipartiteGraph::FromEdges(3, 2,
                                   {{0, 0}, {0, 1}, {1, 0}, {2, 1}});
}

TEST(BipartiteGraphTest, SizesAndDegrees) {
  const BipartiteGraph g = MakeSmall();
  EXPECT_EQ(g.num_u(), 3u);
  EXPECT_EQ(g.num_v(), 2u);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.Degree(g.VGlobal(0)), 2u);  // v0: u0, u1
  EXPECT_EQ(g.Degree(g.VGlobal(1)), 2u);  // v1: u0, u2
}

TEST(BipartiteGraphTest, NeighborsSortedAndSymmetric) {
  const BipartiteGraph g = MakeSmall();
  const auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], g.VGlobal(0));
  EXPECT_EQ(n0[1], g.VGlobal(1));
  EXPECT_TRUE(g.Validate().empty()) << g.Validate();
}

TEST(BipartiteGraphTest, DuplicateEdgesRemoved) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(
      2, 2, {{0, 0}, {0, 0}, {0, 0}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.Validate().empty());
}

TEST(BipartiteGraphTest, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(0, 0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.Validate().empty());
}

TEST(BipartiteGraphTest, IsolatedVerticesAllowed) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(5, 5, {{0, 0}});
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_EQ(g.Degree(g.VGlobal(4)), 0u);
  EXPECT_TRUE(g.Validate().empty());
}

TEST(BipartiteGraphTest, SideHelpers) {
  const BipartiteGraph g = MakeSmall();
  EXPECT_TRUE(g.IsU(0));
  EXPECT_TRUE(g.IsU(2));
  EXPECT_FALSE(g.IsU(3));
  EXPECT_EQ(g.Local(4), 1u);
  EXPECT_EQ(g.Local(2), 2u);
  EXPECT_EQ(g.SideBegin(Side::kU), 0u);
  EXPECT_EQ(g.SideEnd(Side::kU), 3u);
  EXPECT_EQ(g.SideBegin(Side::kV), 3u);
  EXPECT_EQ(g.SideEnd(Side::kV), 5u);
  EXPECT_EQ(g.SideSize(Side::kV), 2u);
}

TEST(BipartiteGraphTest, WedgeCount) {
  const BipartiteGraph g = MakeSmall();
  // u0 neighbors v0 (deg 2) and v1 (deg 2): wedges = 1 + 1 = 2.
  EXPECT_EQ(g.WedgeCount(0), 2u);
  // u1 neighbors v0 (deg 2): wedges = 1.
  EXPECT_EQ(g.WedgeCount(1), 1u);
  EXPECT_EQ(g.TotalWedges(Side::kU), 4u);
  // v0 neighbors u0 (deg 2), u1 (deg 1): wedges = 1 + 0 = 1.
  EXPECT_EQ(g.WedgeCount(g.VGlobal(0)), 1u);
  EXPECT_EQ(g.TotalWedges(Side::kV), 2u);
}

TEST(BipartiteGraphTest, TotalWedgesMatchesDegreeFormula) {
  const BipartiteGraph g = ChungLuBipartite(100, 70, 400, 0.5, 0.5, 3);
  // Σ_{u∈U} Σ_{v∈N(u)} (d_v − 1) = Σ_{v∈V} d_v (d_v − 1).
  Count by_v = 0;
  for (VertexId v = g.SideBegin(Side::kV); v < g.SideEnd(Side::kV); ++v) {
    by_v += g.Degree(v) * (g.Degree(v) - 1);
  }
  EXPECT_EQ(g.TotalWedges(Side::kU), by_v);
}

TEST(BipartiteGraphTest, CountingCostBoundIsSymmetricAndBounded) {
  const BipartiteGraph g = ChungLuBipartite(100, 70, 400, 0.8, 0.4, 4);
  const Count bound = g.CountingCostBound();
  // Σ min(d_u, d_v) ≤ Σ d_u = 2|E| per side: compare against both wedges.
  EXPECT_LE(bound, g.TotalWedges(Side::kU) + 2 * g.num_edges());
  EXPECT_GT(bound, 0u);
  // min is symmetric, so the swapped graph has the same bound.
  EXPECT_EQ(g.SwappedCopy().CountingCostBound(), bound);
}

TEST(BipartiteGraphTest, SwappedCopySwapsSides) {
  const BipartiteGraph g = MakeSmall();
  const BipartiteGraph s = g.SwappedCopy();
  EXPECT_EQ(s.num_u(), g.num_v());
  EXPECT_EQ(s.num_v(), g.num_u());
  EXPECT_EQ(s.num_edges(), g.num_edges());
  EXPECT_TRUE(s.Validate().empty()) << s.Validate();
  // (u0, v1) in g becomes (u1, v0) in s.
  const auto n1 = s.Neighbors(1);
  EXPECT_TRUE(std::find(n1.begin(), n1.end(), s.VGlobal(0)) != n1.end());
}

TEST(BipartiteGraphTest, SwappedTwiceIsIdentity) {
  const BipartiteGraph g = ChungLuBipartite(50, 30, 200, 0.4, 0.4, 6);
  const BipartiteGraph round_trip = g.SwappedCopy().SwappedCopy();
  EXPECT_EQ(round_trip.ToEdges(), g.ToEdges());
}

TEST(BipartiteGraphTest, DegreeDescendingRanksIsPermutationOrderedByDegree) {
  const BipartiteGraph g = ChungLuBipartite(80, 60, 300, 0.7, 0.2, 8);
  const std::vector<VertexId> rank = g.DegreeDescendingRanks();
  ASSERT_EQ(rank.size(), g.num_vertices());
  std::vector<VertexId> inverse(rank.size(), kInvalidVertex);
  for (VertexId w = 0; w < rank.size(); ++w) {
    ASSERT_LT(rank[w], rank.size());
    ASSERT_EQ(inverse[rank[w]], kInvalidVertex) << "rank not a permutation";
    inverse[rank[w]] = w;
  }
  for (VertexId r = 0; r + 1 < inverse.size(); ++r) {
    EXPECT_GE(g.Degree(inverse[r]), g.Degree(inverse[r + 1]));
  }
}

TEST(BipartiteGraphTest, ToEdgesRoundTrip) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 0}, {2, 1}};
  const BipartiteGraph g = BipartiteGraph::FromEdges(3, 2, edges);
  EXPECT_EQ(g.ToEdges(), edges);
}

TEST(BipartiteGraphTest, AverageDegree) {
  const BipartiteGraph g = MakeSmall();
  EXPECT_DOUBLE_EQ(g.AverageDegree(Side::kU), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(g.AverageDegree(Side::kV), 2.0);
}

// -- O(n + m) builders against the comparison-sort reference ----------------

/// The CSR the comparison-sort builder produced: edges std::sort-ed and
/// std::unique-d, lists filled in edge order, then each list sorted again.
struct ReferenceCsr {
  std::vector<Edge> edges;
  std::vector<EdgeOffset> offsets;
  std::vector<VertexId> adjacency;
};

ReferenceCsr ReferenceBuild(VertexId num_u, VertexId num_v,
                            std::vector<Edge> edges) {
  ReferenceCsr ref;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const VertexId n = num_u + num_v;
  ref.offsets.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++ref.offsets[e.u + 1];
    ++ref.offsets[num_u + e.v + 1];
  }
  for (VertexId w = 0; w < n; ++w) ref.offsets[w + 1] += ref.offsets[w];
  ref.adjacency.resize(2 * edges.size());
  std::vector<EdgeOffset> cursor(ref.offsets.begin(), ref.offsets.end() - 1);
  for (const Edge& e : edges) {
    ref.adjacency[cursor[e.u]++] = num_u + e.v;
    ref.adjacency[cursor[num_u + e.v]++] = e.u;
  }
  for (VertexId w = 0; w < n; ++w) {
    std::sort(ref.adjacency.begin() + static_cast<int64_t>(ref.offsets[w]),
              ref.adjacency.begin() + static_cast<int64_t>(ref.offsets[w + 1]));
  }
  ref.edges = std::move(edges);
  return ref;
}

/// The comparator sort DegreeDescendingRanks replaced.
std::vector<VertexId> ReferenceRanks(const BipartiteGraph& g) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
    return a < b;
  });
  std::vector<VertexId> rank(order.size());
  for (VertexId i = 0; i < order.size(); ++i) rank[order[i]] = i;
  return rank;
}

/// An unsorted edge list over [0, num_u) × [0, num_v) with ~1/4 repeats,
/// touching only part of each side (the rest stay isolated).
std::vector<Edge> RandomEdges(VertexId num_u, VertexId num_v, size_t m,
                              uint64_t seed) {
  std::vector<Edge> edges;
  if (num_u == 0 || num_v == 0) return edges;
  std::mt19937_64 rng(seed);
  const VertexId used_u = std::max<VertexId>(1, num_u - num_u / 5);
  const VertexId used_v = std::max<VertexId>(1, num_v - num_v / 7);
  for (size_t i = 0; i < m; ++i) {
    if (!edges.empty() && rng() % 4 == 0) {
      edges.push_back(edges[rng() % edges.size()]);
    } else {
      edges.push_back({static_cast<VertexId>(rng() % used_u),
                       static_cast<VertexId>(rng() % used_v)});
    }
  }
  return edges;
}

struct BuilderCase {
  VertexId num_u;
  VertexId num_v;
  size_t m;
};

/// Shapes covering the edge cases: empty sides, single vertices, isolated
/// vertices, dense multigraphs and lopsided sides.
const std::vector<BuilderCase>& BuilderCases() {
  static const std::vector<BuilderCase> cases = {
      {0, 0, 0},    {0, 5, 0},     {6, 0, 0},     {1, 1, 3},
      {1, 9, 20},   {9, 1, 20},    {4, 3, 40},    {50, 30, 200},
      {30, 200, 900}, {300, 20, 2500}, {120, 120, 60}};
  return cases;
}

TEST(BipartiteGraphBuilderTest, AssignFromEdgesMatchesSortReference) {
  uint64_t seed = 100;
  BipartiteGraph reused;  // one graph rebuilt in place across every case
  for (const BuilderCase& c : BuilderCases()) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      SCOPED_TRACE(std::to_string(c.num_u) + "x" + std::to_string(c.num_v) +
                   " m=" + std::to_string(c.m) + " seed " +
                   std::to_string(seed));
      const std::vector<Edge> input = RandomEdges(c.num_u, c.num_v, c.m, seed);
      const ReferenceCsr ref = ReferenceBuild(c.num_u, c.num_v, input);
      std::vector<Edge> edges = input;
      reused.AssignFromEdges(c.num_u, c.num_v, edges);
      EXPECT_EQ(edges, ref.edges);
      EXPECT_TRUE(std::ranges::equal(reused.offsets(), ref.offsets));
      EXPECT_TRUE(std::ranges::equal(reused.adjacency(), ref.adjacency));
      EXPECT_TRUE(reused.Validate().empty()) << reused.Validate();
      const BipartiteGraph fresh =
          BipartiteGraph::FromEdges(c.num_u, c.num_v, input);
      EXPECT_TRUE(std::ranges::equal(fresh.adjacency(), ref.adjacency));
      // A fresh graph holds no capacity for the duplicates it dropped.
      EXPECT_EQ(fresh.CapacityFootprint(),
                ref.offsets.size() + ref.adjacency.size());
    }
  }
}

TEST(BipartiteGraphBuilderTest, SwappedCopyEqualsFromEdgesOfSwappedList) {
  uint64_t seed = 200;
  for (const BuilderCase& c : BuilderCases()) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      SCOPED_TRACE(std::to_string(c.num_u) + "x" + std::to_string(c.num_v) +
                   " seed " + std::to_string(seed));
      const BipartiteGraph g = BipartiteGraph::FromEdges(
          c.num_u, c.num_v, RandomEdges(c.num_u, c.num_v, c.m, seed));
      std::vector<Edge> swapped_edges;
      for (const Edge& e : g.ToEdges()) swapped_edges.push_back({e.v, e.u});
      const BipartiteGraph expected =
          BipartiteGraph::FromEdges(c.num_v, c.num_u, swapped_edges);
      const BipartiteGraph s = g.SwappedCopy();
      EXPECT_EQ(s.num_u(), expected.num_u());
      EXPECT_EQ(s.num_v(), expected.num_v());
      EXPECT_TRUE(std::ranges::equal(s.offsets(), expected.offsets()));
      EXPECT_TRUE(std::ranges::equal(s.adjacency(), expected.adjacency()));
    }
  }
}

TEST(BipartiteGraphBuilderTest, DegreeDescendingRanksMatchesComparatorSort) {
  std::vector<BipartiteGraph> graphs = {
      BipartiteGraph::FromEdges(0, 0, {}), BipartiteGraph::FromEdges(1, 0, {}),
      BipartiteGraph::FromEdges(1, 1, {{0, 0}}),
      // Every degree ties: all vertices of K_{a,a} have degree a.
      CompleteBipartite(7, 7), CompleteBipartite(3, 5),
      ChungLuBipartite(80, 60, 300, 0.7, 0.2, 8),
      // Mostly degree 0-2: thousands of ties per bucket.
      ChungLuBipartite(2000, 1500, 1800, 0.0, 0.0, 9)};
  uint64_t seed = 300;
  for (const BuilderCase& c : BuilderCases()) {
    graphs.push_back(BipartiteGraph::FromEdges(
        c.num_u, c.num_v, RandomEdges(c.num_u, c.num_v, c.m, seed++)));
  }
  std::vector<VertexId> rank = {42};  // stale content must be overwritten
  std::vector<VertexId> buckets(3, 7);
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    const std::vector<VertexId> expected = ReferenceRanks(graphs[i]);
    EXPECT_EQ(graphs[i].DegreeDescendingRanks(), expected);
    graphs[i].DegreeDescendingRanksInto(rank, buckets);
    EXPECT_EQ(rank, expected);
    EXPECT_LE(buckets.size(), std::max<size_t>(1, graphs[i].num_vertices()));
  }
}

}  // namespace
}  // namespace receipt

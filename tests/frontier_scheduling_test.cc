// Frontier-driven peel scheduling: the engine builds each mid-range active
// set by merging the per-thread workspace frontiers. These suites check
// default runs against the BUP and sequential wing oracles, that the build
// counters report what ran and do not depend on the thread count, that a
// dense frontier is merged like a sparse one, and that the epoch bitmap
// dedups multi-neighbor decrements (the candidate-duplication regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "engine/workspace.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

TEST(FrontierEpochsTest, ClaimsOncePerRound) {
  engine::FrontierEpochs epochs;
  epochs.Reset(8);
  epochs.NextRound();
  EXPECT_TRUE(epochs.Claim(3));
  EXPECT_FALSE(epochs.Claim(3));  // second decrement in the same round
  EXPECT_TRUE(epochs.Claim(5));
  epochs.NextRound();
  EXPECT_TRUE(epochs.Claim(3));  // new round, claimable again
  EXPECT_FALSE(epochs.Claim(3));
  // Reset rewinds everything.
  epochs.Reset(8);
  epochs.NextRound();
  EXPECT_TRUE(epochs.Claim(3));
}

// What every coarse run's counters must satisfy, for a run over
// `num_entities` peel entities.
void ExpectConsistentBuildCounters(const PeelStats& stats,
                                   uint64_t num_entities) {
  // An entity enters a frontier only while alive and in range, and the
  // next round peels it, so each one enters at most once.
  EXPECT_LE(stats.frontier_build_elements, num_entities);
  // One index build per range, plus one per CD re-count (huc_recounts
  // also counts the FD phase's re-counts, so it only bounds from above).
  EXPECT_GE(stats.index_build_rounds, stats.num_subsets);
  EXPECT_LE(stats.index_build_rounds, stats.num_subsets + stats.huc_recounts);
}

class FrontierTipSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint32_t>> {};

TEST_P(FrontierTipSweep, DefaultRunsMatchBup) {
  const auto [num_u, num_v, num_edges, seed] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(
      static_cast<VertexId>(num_u), static_cast<VertexId>(num_v),
      static_cast<uint64_t>(num_edges), 0.6, 0.6, seed);

  for (const Side side : {Side::kU, Side::kV}) {
    TipOptions bup_options;
    bup_options.side = side;
    const TipResult bup = BupDecompose(g, bup_options);

    for (const int partitions : {2, 6}) {
      for (const bool optimized : {false, true}) {
        TipOptions options;
        options.side = side;
        options.num_partitions = partitions;
        options.use_huc = optimized;
        options.use_dgm = optimized;

        options.num_threads = 1;
        const TipResult one = ReceiptDecompose(g, options);
        options.num_threads = 3;
        const TipResult many = ReceiptDecompose(g, options);

        EXPECT_EQ(one.tip_numbers, bup.tip_numbers);
        EXPECT_EQ(many.tip_numbers, bup.tip_numbers);
        EXPECT_EQ(many.subsets, one.subsets);
        EXPECT_EQ(many.range_bounds, one.range_bounds);
        EXPECT_EQ(many.subset_of, one.subset_of);

        // The same rounds build the same active sets at every thread
        // count.
        EXPECT_EQ(many.stats.sync_rounds, one.stats.sync_rounds);
        EXPECT_EQ(many.stats.frontier_rounds, one.stats.frontier_rounds);
        EXPECT_EQ(many.stats.frontier_build_elements,
                  one.stats.frontier_build_elements);
        ExpectConsistentBuildCounters(
            one.stats, side == Side::kU ? g.num_u() : g.num_v());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrontierTipSweep,
    ::testing::Values(std::make_tuple(70, 45, 340, 71u),
                      std::make_tuple(90, 60, 450, 73u),
                      std::make_tuple(55, 80, 400, 79u)));

class FrontierWingSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint32_t>> {};

TEST_P(FrontierWingSweep, DefaultRunsMatchSequential) {
  const auto [num_u, num_v, num_edges, seed] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(
      static_cast<VertexId>(num_u), static_cast<VertexId>(num_v),
      static_cast<uint64_t>(num_edges), 0.5, 0.5, seed);

  const WingResult sequential = WingDecompose(g, /*num_threads=*/1);

  for (const int partitions : {2, 5}) {
    ReceiptWingOptions options;
    options.num_partitions = partitions;

    options.num_threads = 1;
    const WingResult one = ReceiptWingDecompose(g, options);
    options.num_threads = 3;
    const WingResult many = ReceiptWingDecompose(g, options);

    EXPECT_EQ(one.wing_numbers, sequential.wing_numbers);
    EXPECT_EQ(many.wing_numbers, sequential.wing_numbers);
    EXPECT_EQ(many.stats.sync_rounds, one.stats.sync_rounds);
    EXPECT_EQ(many.stats.num_subsets, one.stats.num_subsets);
    EXPECT_EQ(many.stats.frontier_rounds, one.stats.frontier_rounds);
    ExpectConsistentBuildCounters(one.stats, g.num_edges());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrontierWingSweep,
    ::testing::Values(std::make_tuple(25, 20, 110, 81u),
                      std::make_tuple(30, 16, 125, 83u)));

// Regression for the candidate-duplication hazard in the tracked-candidates
// path of RangeDecomposer::PeelRange: u4's support is decremented by six
// different vertices peeled in one round (four K_{5,2} partners plus the
// u5/u6 block), so without the epoch-bitmap dedup it would enter the next
// active set — and therefore its subset — more than once. Three disjoint
// K_{2,4} blocks (support 6, above the first range) keep enough vertices
// alive that the one-vertex frontier is sparse.
TEST(FrontierRegressionTest, MultiDecrementVertexEntersActiveSetOnce) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 0; v < 2; ++v) edges.push_back({u, v});
  }
  for (VertexId u = 4; u < 7; ++u) {
    for (VertexId v = 2; v < 4; ++v) edges.push_back({u, v});
  }
  for (VertexId block = 0; block < 3; ++block) {
    for (VertexId u = 7 + 2 * block; u < 9 + 2 * block; ++u) {
      for (VertexId v = 4 + 4 * block; v < 8 + 4 * block; ++v) {
        edges.push_back({u, v});
      }
    }
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(13, 16, edges);

  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);

  for (const int threads : {1, 3}) {
    TipOptions options;
    options.num_threads = threads;
    options.num_partitions = 2;
    options.use_huc = false;
    options.use_dgm = false;
    const TipResult r = ReceiptDecompose(g, options);
    EXPECT_GT(r.stats.frontier_rounds, 0u) << "threads " << threads;

    // Subsets partition U exactly: every vertex peeled exactly once.
    std::vector<VertexId> peeled;
    for (const auto& subset : r.subsets) {
      peeled.insert(peeled.end(), subset.begin(), subset.end());
    }
    ASSERT_EQ(peeled.size(), static_cast<size_t>(g.num_u()));
    std::sort(peeled.begin(), peeled.end());
    std::vector<VertexId> expected(g.num_u());
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(peeled, expected) << "threads " << threads;
    EXPECT_EQ(r.tip_numbers, bup.tip_numbers);
  }
}

// A dense frontier, on the unpadded core of the graph above: the first
// round peels every vertex but u4, so the one-vertex frontier is the whole
// surviving population. The merge must still build the next active set:
// same tip numbers as BUP, every vertex peeled exactly once, and the same
// merge count at every thread count.
TEST(FrontierRegressionTest, DenseFrontierIsMerged) {
  std::vector<BipartiteGraph::Edge> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 0; v < 2; ++v) edges.push_back({u, v});
  }
  for (VertexId u = 4; u < 7; ++u) {
    for (VertexId v = 2; v < 4; ++v) edges.push_back({u, v});
  }
  const BipartiteGraph g = BipartiteGraph::FromEdges(7, 4, edges);

  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);

  std::vector<uint64_t> frontier_rounds;
  for (const int threads : {1, 3}) {
    TipOptions options;
    options.num_threads = threads;
    options.num_partitions = 2;
    options.use_huc = false;
    options.use_dgm = false;
    const TipResult r = ReceiptDecompose(g, options);
    EXPECT_GT(r.stats.frontier_rounds, 0u) << "threads " << threads;
    frontier_rounds.push_back(r.stats.frontier_rounds);

    std::vector<VertexId> peeled;
    for (const auto& subset : r.subsets) {
      peeled.insert(peeled.end(), subset.begin(), subset.end());
    }
    ASSERT_EQ(peeled.size(), static_cast<size_t>(g.num_u()));
    std::sort(peeled.begin(), peeled.end());
    std::vector<VertexId> expected(g.num_u());
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(peeled, expected) << "threads " << threads;
    EXPECT_EQ(r.tip_numbers, bup.tip_numbers);
  }
  EXPECT_EQ(frontier_rounds[0], frontier_rounds[1]);
}

}  // namespace
}  // namespace receipt

// Tests for RECEIPT-W, the parallel two-step wing decomposition (§7
// extension): exact agreement with sequential WingDecompose across graph
// shapes, partition counts and thread counts — including the same-round
// butterfly-conflict priority rule — and the selective fine step that
// leaves unchosen subsets untouched.

#include "wing/receipt_wing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "engine/peel_control.h"
#include "graph/generators.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

ReceiptWingOptions Options(int partitions, int threads) {
  ReceiptWingOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  return options;
}

TEST(ReceiptWingTest, CompleteBipartiteUniform) {
  const BipartiteGraph g = CompleteBipartite(5, 4);
  const WingResult r = ReceiptWingDecompose(g, Options(3, 2));
  for (const Count w : r.wing_numbers) EXPECT_EQ(w, 4u * 3u);
}

TEST(ReceiptWingTest, StarAllZero) {
  const BipartiteGraph g = Star(12);
  const WingResult r = ReceiptWingDecompose(g, Options(3, 2));
  for (const Count w : r.wing_numbers) EXPECT_EQ(w, 0u);
}

TEST(ReceiptWingTest, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(0, 0, {});
  const WingResult r = ReceiptWingDecompose(g, Options(3, 2));
  EXPECT_TRUE(r.wing_numbers.empty());
}

TEST(ReceiptWingTest, SingleButterflyConflictRound) {
  // K_{2,2}: all four edges have support 1 and are peeled in the same
  // coarse round — the priority rule must not over-decrement.
  const BipartiteGraph g = CompleteBipartite(2, 2);
  const WingResult r = ReceiptWingDecompose(g, Options(2, 2));
  for (const Count w : r.wing_numbers) EXPECT_EQ(w, 1u);
}

TEST(ReceiptWingTest, ZeroThreadsRunsOnOneThread) {
  const BipartiteGraph g = ChungLuBipartite(80, 60, 400, 0.5, 0.5, 303);
  EXPECT_EQ(ReceiptWingDecompose(g, Options(6, 0)).wing_numbers,
            WingDecompose(g, 1).wing_numbers);
}

TEST(ReceiptWingTest, SelectiveFinePeelsOnlyChosenSubsets) {
  const BipartiteGraph g = ChungLuBipartite(80, 60, 400, 0.5, 0.5, 307);
  const ReceiptWingOptions options = Options(6, 3);
  PeelStats stats;
  const engine::RangeResult<EdgeOffset> coarse =
      ReceiptWingCoarse(g, options, &stats);
  ASSERT_GT(coarse.subsets.size(), 1u);
  const std::vector<Count> reference = WingDecompose(g, 1).wing_numbers;
  constexpr Count kUntouched = std::numeric_limits<Count>::max();

  std::vector<uint8_t> only(coarse.subsets.size(), 0);
  for (size_t sid = 1; sid < only.size(); sid += 2) only[sid] = 1;
  std::vector<Count> wings(g.num_edges(), kUntouched);
  ReceiptWingFine(g, coarse, options, wings, &stats, only);
  for (EdgeOffset e = 0; e < g.num_edges(); ++e) {
    if (only[coarse.subset_of[e]] != 0) {
      EXPECT_EQ(wings[e], reference[e]) << "e=" << e;
    } else {
      EXPECT_EQ(wings[e], kUntouched) << "e=" << e;
    }
  }
}

TEST(ReceiptWingTest, CancelledFineStepPeelsNoSubset) {
  // An uncancelled coarse step, then the fine step under an
  // already-cancelled control: no subset may be peeled.
  const BipartiteGraph g = ChungLuBipartite(80, 60, 400, 0.5, 0.5, 307);
  PeelStats coarse_stats;
  const engine::RangeResult<EdgeOffset> coarse =
      ReceiptWingCoarse(g, Options(6, 2), &coarse_stats);
  ASSERT_GT(coarse.subsets.size(), 1u);
  constexpr Count kUntouched = std::numeric_limits<Count>::max();
  for (const int threads : {1, 4}) {
    engine::PeelControl control;
    control.RequestCancel();
    ReceiptWingOptions options = Options(6, threads);
    options.control = &control;
    PeelStats stats;
    stats.wedges_fd = 17;
    std::vector<Count> wings(g.num_edges(), kUntouched);
    ReceiptWingFine(g, coarse, options, wings, &stats, {});
    EXPECT_EQ(stats.wedges_fd, 17u) << "threads " << threads;
    EXPECT_EQ(control.peeled(), 0u) << "threads " << threads;
    for (EdgeOffset e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(wings[e], kUntouched) << "threads " << threads << " e " << e;
    }
  }
}

TEST(ReceiptWingTest, CoarseStatsPopulated) {
  const BipartiteGraph g = ChungLuBipartite(80, 60, 400, 0.5, 0.5, 301);
  const WingResult r = ReceiptWingDecompose(g, Options(6, 2));
  EXPECT_GT(r.stats.sync_rounds, 0u);
  EXPECT_GT(r.stats.wedges_counting, 0u);
  EXPECT_GT(r.stats.wedges_cd, 0u);
  EXPECT_GT(r.stats.num_subsets, 0u);
  EXPECT_LE(r.stats.num_subsets, 7u);
}

using WingSweepParam =
    std::tuple<VertexId, VertexId, uint64_t, double, double, uint64_t, int,
               int>;

class ReceiptWingSweep : public testing::TestWithParam<WingSweepParam> {};

TEST_P(ReceiptWingSweep, MatchesSequentialWing) {
  const auto [nu, nv, m, au, av, seed, partitions, threads] = GetParam();
  const BipartiteGraph g = ChungLuBipartite(nu, nv, m, au, av, seed);
  const WingResult parallel_result =
      ReceiptWingDecompose(g, Options(partitions, threads));
  const WingResult sequential_result = WingDecompose(g, 1);
  ASSERT_EQ(parallel_result.wing_numbers.size(),
            sequential_result.wing_numbers.size());
  for (uint64_t e = 0; e < sequential_result.wing_numbers.size(); ++e) {
    ASSERT_EQ(parallel_result.wing_numbers[e],
              sequential_result.wing_numbers[e])
        << "edge " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReceiptWingSweep,
    testing::Values(
        WingSweepParam{30, 20, 120, 0.0, 0.0, 1, 4, 2},
        WingSweepParam{30, 20, 120, 0.0, 0.0, 2, 4, 2},
        WingSweepParam{50, 30, 250, 0.6, 0.6, 3, 6, 2},
        WingSweepParam{50, 30, 250, 0.6, 0.6, 3, 1, 1},
        WingSweepParam{50, 30, 250, 0.6, 0.6, 3, 100, 4},
        WingSweepParam{80, 25, 300, 0.9, 0.3, 4, 6, 2},
        WingSweepParam{40, 40, 350, 0.3, 0.3, 5, 8, 4},
        WingSweepParam{60, 60, 400, 0.5, 0.8, 6, 6, 3},
        WingSweepParam{100, 50, 450, 0.7, 0.7, 7, 8, 2}));

}  // namespace
}  // namespace receipt

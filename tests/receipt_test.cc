// End-to-end tests for ReceiptDecompose: equivalence with sequential BUP on
// structured and random graphs, across both sides, partition counts, thread
// counts and optimization flags (Theorem 2).

#include "tip/receipt.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/tip_common.h"

namespace receipt {
namespace {

TipOptions Options(Side side, int partitions, int threads, bool huc,
                   bool dgm) {
  TipOptions options;
  options.side = side;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.use_huc = huc;
  options.use_dgm = dgm;
  return options;
}

TEST(ReceiptTest, SmallExampleKnownTipNumbers) {
  const BipartiteGraph g = SmallExampleGraph();
  const TipResult result = ReceiptDecompose(g, Options(Side::kU, 3, 2,
                                                       true, true));
  const std::vector<Count> expected = {18, 18, 18, 18, 5, 5, 0, 0};
  EXPECT_EQ(result.tip_numbers, expected);
}

TEST(ReceiptTest, SmallExampleMatchesBupOnVSide) {
  const BipartiteGraph g = SmallExampleGraph();
  const TipResult receipt_result =
      ReceiptDecompose(g, Options(Side::kV, 2, 2, true, true));
  const TipResult bup_result = BupDecompose(g, Options(Side::kV, 1, 1,
                                                       false, false));
  EXPECT_EQ(receipt_result.tip_numbers, bup_result.tip_numbers);
}

TEST(ReceiptTest, CompleteBipartiteUniformTipNumbers) {
  // In K_{a,b} every u participates in (a-1)·C(b,2) butterflies and the
  // graph is fully symmetric, so every tip number equals that count.
  const BipartiteGraph g = CompleteBipartite(5, 4);
  const TipResult result = ReceiptDecompose(g, Options(Side::kU, 4, 2,
                                                       true, true));
  const Count expected = 4 * Choose2(4);
  for (const Count t : result.tip_numbers) EXPECT_EQ(t, expected);
}

TEST(ReceiptTest, StarHasZeroTipNumbers) {
  const BipartiteGraph g = Star(16);
  const TipResult result = ReceiptDecompose(g, Options(Side::kU, 4, 2,
                                                       true, true));
  for (const Count t : result.tip_numbers) EXPECT_EQ(t, 0u);
}

TEST(ReceiptTest, ZeroThreadsRunsOnOneThread) {
  // num_threads = 0 must not reach an OpenMP team sized by the runtime
  // default: every parallel region clamps to at least one thread.
  const BipartiteGraph g = ChungLuBipartite(200, 120, 900, 0.6, 0.6, 151);
  const TipResult result =
      ReceiptDecompose(g, Options(Side::kU, 8, 0, true, true));
  EXPECT_EQ(result.tip_numbers,
            BupDecompose(g, Options(Side::kU, 1, 1, false, false))
                .tip_numbers);
}

TEST(ReceiptTest, ResultsInvariantAcrossFdOrderAndThreads) {
  // The FD pop order and the thread count move work between threads, never
  // results: CD's partition and FD's tip numbers are the same in every run.
  const BipartiteGraph g = ChungLuBipartite(400, 260, 3000, 0.8, 0.8, 777);
  const TipResult reference =
      ReceiptDecompose(g, Options(Side::kU, 8, 1, true, true));
  ASSERT_FALSE(reference.tip_numbers.empty());
  for (const int threads : {1, 2, 4}) {
    for (const FdOrder order : {FdOrder::kCostDescending, FdOrder::kCreation}) {
      TipOptions options = Options(Side::kU, 8, threads, true, true);
      options.fd_order = order;
      const TipResult result = ReceiptDecompose(g, options);
      const std::string config =
          "threads=" + std::to_string(threads) + " order=" +
          (order == FdOrder::kCreation ? "creation" : "lpt");
      EXPECT_EQ(result.tip_numbers, reference.tip_numbers) << config;
      EXPECT_EQ(result.range_bounds, reference.range_bounds) << config;
      EXPECT_EQ(result.subset_of, reference.subset_of) << config;
      EXPECT_EQ(result.subsets, reference.subsets) << config;
    }
  }
}

TEST(ReceiptTest, EmptyGraph) {
  const BipartiteGraph g = BipartiteGraph::FromEdges(0, 0, {});
  const TipResult result = ReceiptDecompose(g, Options(Side::kU, 4, 2,
                                                       true, true));
  EXPECT_TRUE(result.tip_numbers.empty());
}

TEST(ReceiptTest, RangeBoundsAreStrictlyIncreasingAndSound) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1500, 0.6, 0.6, 7);
  const TipResult r = ReceiptDecompose(g, Options(Side::kU, 8, 2, true,
                                                  true));
  ASSERT_EQ(r.range_bounds.size(), r.subsets.size() + 1);
  for (size_t i = 0; i + 1 < r.range_bounds.size(); ++i) {
    EXPECT_LT(r.range_bounds[i], r.range_bounds[i + 1]);
  }
  // Theorem 1: every vertex's tip number lies inside its subset's range.
  for (VertexId u = 0; u < g.num_u(); ++u) {
    const uint32_t s = r.subset_of[u];
    EXPECT_GE(r.tip_numbers[u], r.range_bounds[s]) << "vertex " << u;
    EXPECT_LT(r.tip_numbers[u], r.range_bounds[s + 1]) << "vertex " << u;
  }
}

// -- parameterized equivalence sweep --------------------------------------

struct SweepParam {
  VertexId num_u;
  VertexId num_v;
  uint64_t num_edges;
  double alpha_u;
  double alpha_v;
  uint64_t seed;
  Side side;
  int partitions;
  int threads;
  bool huc;
  bool dgm;
};

std::string SweepName(const testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string name = "g" + std::to_string(p.num_u) + "x" +
                     std::to_string(p.num_v) + "e" +
                     std::to_string(p.num_edges) + "s" +
                     std::to_string(p.seed) + SideName(p.side) + "P" +
                     std::to_string(p.partitions) + "T" +
                     std::to_string(p.threads);
  name += p.huc ? "huc1" : "huc0";
  name += p.dgm ? "dgm1" : "dgm0";
  return name;
}

class ReceiptEquivalenceSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(ReceiptEquivalenceSweep, MatchesBup) {
  const SweepParam& p = GetParam();
  const BipartiteGraph g = ChungLuBipartite(p.num_u, p.num_v, p.num_edges,
                                            p.alpha_u, p.alpha_v, p.seed);
  const TipResult receipt_result = ReceiptDecompose(
      g, Options(p.side, p.partitions, p.threads, p.huc, p.dgm));
  const TipResult bup_result =
      BupDecompose(g, Options(p.side, 1, 1, false, false));
  ASSERT_EQ(receipt_result.tip_numbers.size(),
            bup_result.tip_numbers.size());
  for (size_t u = 0; u < bup_result.tip_numbers.size(); ++u) {
    ASSERT_EQ(receipt_result.tip_numbers[u], bup_result.tip_numbers[u])
        << "vertex " << u;
  }
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  // Graph shapes × seeds × both sides, default optimizations.
  for (const auto& [nu, nv, m, au, av] :
       std::vector<std::tuple<VertexId, VertexId, uint64_t, double, double>>{
           {60, 40, 250, 0.3, 0.3},
           {120, 40, 500, 0.7, 0.9},
           {80, 80, 600, 0.0, 0.0},
           {200, 150, 900, 0.5, 0.5},
       }) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      for (const Side side : {Side::kU, Side::kV}) {
        params.push_back({nu, nv, m, au, av, seed, side, 6, 3, true, true});
      }
    }
  }
  // Optimization-flag matrix on one shape.
  for (const bool huc : {false, true}) {
    for (const bool dgm : {false, true}) {
      for (const Side side : {Side::kU, Side::kV}) {
        params.push_back(
            {150, 100, 800, 0.6, 0.8, 11, side, 8, 2, huc, dgm});
      }
    }
  }
  // Partition-count sweep (P=1 degenerates to one coarse range).
  for (const int partitions : {1, 2, 4, 16, 64}) {
    params.push_back(
        {100, 80, 500, 0.5, 0.5, 5, Side::kU, partitions, 2, true, true});
  }
  // Thread-count sweep.
  for (const int threads : {1, 2, 4, 8}) {
    params.push_back(
        {100, 80, 500, 0.4, 0.7, 9, Side::kU, 8, threads, true, true});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReceiptEquivalenceSweep,
                         testing::ValuesIn(MakeSweep()), SweepName);

}  // namespace
}  // namespace receipt

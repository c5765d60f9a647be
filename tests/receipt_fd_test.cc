// Tests for RECEIPT FD (Alg. 4): exactness given a CD partition, the pop
// order and its invariance, the predicted costs FD requires of CD, subset
// wedge-count proxy correctness, and FD-side HUC/DGM.

#include "tip/receipt_fd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "engine/peel_control.h"
#include "engine/workspace.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt_cd.h"

namespace receipt {
namespace {

TipOptions Options(int partitions, int threads, bool huc = true,
                   bool dgm = true,
                   FdOrder order = FdOrder::kCostDescending) {
  TipOptions options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  options.use_huc = huc;
  options.use_dgm = dgm;
  options.fd_order = order;
  return options;
}

std::vector<Count> RunFd(const BipartiteGraph& g, const TipOptions& options,
                         PeelStats* stats) {
  const CdResult cd = ReceiptCd(g, options, stats);
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, tips, stats);
  return tips;
}

// Makespan of greedy list scheduling over `order`: each of `threads` workers
// takes the next task as soon as it is free, the FD task loop with the
// costs standing in for peel times. Ties go to the lower worker.
Count ListScheduleMakespan(const std::vector<Count>& costs,
                           const std::vector<uint32_t>& order, int threads) {
  std::vector<Count> busy_until(static_cast<size_t>(threads), 0);
  for (const uint32_t task : order) {
    *std::min_element(busy_until.begin(), busy_until.end()) += costs[task];
  }
  return *std::max_element(busy_until.begin(), busy_until.end());
}

TEST(ReceiptFdTest, ExactTipNumbers) {
  const BipartiteGraph g = ChungLuBipartite(250, 150, 1100, 0.6, 0.6, 111);
  PeelStats stats;
  const std::vector<Count> tips = RunFd(g, Options(8, 3), &stats);
  TipOptions bup_options;
  const TipResult bup = BupDecompose(g, bup_options);
  EXPECT_EQ(tips, bup.tip_numbers);
}

TEST(ReceiptFdTest, SchedulingFlagDoesNotChangeResults) {
  const BipartiteGraph g = ChungLuBipartite(200, 120, 900, 0.7, 0.5, 113);
  PeelStats s1, s2;
  const std::vector<Count> lpt = RunFd(
      g, Options(10, 3, true, true, FdOrder::kCostDescending), &s1);
  const std::vector<Count> creation =
      RunFd(g, Options(10, 3, true, true, FdOrder::kCreation), &s2);
  EXPECT_EQ(lpt, creation);
  EXPECT_EQ(s1.wedges_fd, s2.wedges_fd);
}

TEST(ReceiptFdTest, PopOrderIsCostDescendingOrCreation) {
  const std::vector<Count> costs = {5, 9, 5, 1, 9, 0};
  EXPECT_EQ(FdPopOrder(costs, FdOrder::kCostDescending),
            (std::vector<uint32_t>{1, 4, 0, 2, 3, 5}));
  EXPECT_EQ(FdPopOrder(costs, FdOrder::kCreation),
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(FdPopOrder({}, FdOrder::kCostDescending).empty());
}

TEST(ReceiptFdTest, CreationOrderIgnoresCosts) {
  const std::vector<uint32_t> identity = {0, 1, 2, 3, 4};
  for (const std::vector<Count>& costs :
       {std::vector<Count>{9, 7, 5, 3, 1}, std::vector<Count>{1, 3, 5, 7, 9},
        std::vector<Count>{5, 1, 7, 3, 2}, std::vector<Count>{0, 0, 0, 0, 0}}) {
    EXPECT_EQ(FdPopOrder(costs, FdOrder::kCreation), identity);
  }
  EXPECT_TRUE(FdPopOrder({}, FdOrder::kCreation).empty());
}

TEST(ReceiptFdTest, LptOrderHandExampleAndDegenerateInputs) {
  EXPECT_EQ(FdPopOrder(std::vector<Count>{10, 2}, FdOrder::kCostDescending),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(FdPopOrder(std::vector<Count>{2, 10}, FdOrder::kCostDescending),
            (std::vector<uint32_t>{1, 0}));
  EXPECT_EQ(FdPopOrder(std::vector<Count>{7}, FdOrder::kCostDescending),
            (std::vector<uint32_t>{0}));
  // All-zero costs (an empty partition's prediction) keep creation order.
  EXPECT_EQ(FdPopOrder(std::vector<Count>{0, 0, 0}, FdOrder::kCostDescending),
            (std::vector<uint32_t>{0, 1, 2}));

  // More workers than tasks: the makespan is the largest task.
  const std::vector<Count> costs = {10, 2};
  EXPECT_EQ(ListScheduleMakespan(
                costs, FdPopOrder(costs, FdOrder::kCostDescending), 3),
            10u);
  EXPECT_EQ(ListScheduleMakespan({}, {}, 4), 0u);
}

TEST(ReceiptFdTest, LptOrderBreaksTiesByLowerId) {
  EXPECT_EQ(
      FdPopOrder(std::vector<Count>{4, 4, 4, 4}, FdOrder::kCostDescending),
      (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(
      FdPopOrder(std::vector<Count>{1, 3, 3, 2, 3}, FdOrder::kCostDescending),
      (std::vector<uint32_t>{1, 2, 4, 3, 0}));
  // Extreme costs compare without overflow.
  constexpr Count kMax = std::numeric_limits<Count>::max();
  EXPECT_EQ(
      FdPopOrder(std::vector<Count>{kMax, 0, kMax}, FdOrder::kCostDescending),
      (std::vector<uint32_t>{0, 2, 1}));
}

TEST(ReceiptFdTest, LptOrderIsACostSortedPermutation) {
  std::mt19937 rng(7);
  for (int instance = 0; instance < 50; ++instance) {
    std::vector<Count> costs(1 + rng() % 40);
    for (Count& c : costs) c = rng() % 6;  // many ties
    const std::vector<uint32_t> order =
        FdPopOrder(costs, FdOrder::kCostDescending);
    ASSERT_EQ(order.size(), costs.size());
    std::vector<uint32_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (uint32_t i = 0; i < sorted.size(); ++i) {
      ASSERT_EQ(sorted[i], i) << "instance " << instance;
    }
    for (size_t k = 1; k < order.size(); ++k) {
      const Count prev = costs[order[k - 1]];
      const Count cur = costs[order[k]];
      EXPECT_GE(prev, cur) << "instance " << instance << " position " << k;
      if (prev == cur) EXPECT_LT(order[k - 1], order[k]);
    }
  }
}

TEST(ReceiptFdTest, LptOrderShortensTheFig3HandExample) {
  // Creation order leaves the biggest subset for last; LPT starts it first
  // and reaches the optimum, half the total work on two workers.
  const std::vector<Count> costs = {5, 1, 7, 3, 2};
  EXPECT_EQ(
      ListScheduleMakespan(costs, FdPopOrder(costs, FdOrder::kCreation), 2),
      10u);
  EXPECT_EQ(ListScheduleMakespan(
                costs, FdPopOrder(costs, FdOrder::kCostDescending), 2),
            9u);
}

TEST(ReceiptFdTest, LptOrderWithinGrahamBoundOfBruteForce) {
  // Graham (1969): list scheduling in LPT order has makespan
  // <= (4/3 - 1/(3m)) * OPT on m workers. Checked as 3*m*LPT <= (4m-1)*OPT
  // in exact integers against exhaustive search.
  std::mt19937 rng(42);
  for (int instance = 0; instance < 30; ++instance) {
    const int m = 2 + static_cast<int>(rng() % 3);  // 2..4 workers
    const size_t n = 3 + rng() % 6;                 // 3..8 tasks
    std::vector<Count> costs(n);
    for (Count& c : costs) c = rng() % 41;  // 0..40

    Count opt = std::numeric_limits<Count>::max();
    uint64_t combos = 1;
    for (size_t i = 0; i < n; ++i) combos *= static_cast<uint64_t>(m);
    for (uint64_t code = 0; code < combos; ++code) {
      std::vector<Count> loads(static_cast<size_t>(m), 0);
      uint64_t rest = code;
      for (size_t i = 0; i < n; ++i) {
        loads[rest % static_cast<uint64_t>(m)] += costs[i];
        rest /= static_cast<uint64_t>(m);
      }
      opt = std::min(opt, *std::max_element(loads.begin(), loads.end()));
    }

    const Count lpt = ListScheduleMakespan(
        costs, FdPopOrder(costs, FdOrder::kCostDescending), m);
    EXPECT_LE(uint64_t{3} * static_cast<uint64_t>(m) * lpt,
              (uint64_t{4} * static_cast<uint64_t>(m) - 1) * opt)
        << "instance " << instance << ": LPT " << lpt << " vs OPT " << opt
        << " on " << m << " workers";
  }
}

TEST(ReceiptFdTest, FdCountersInvariantAcrossOrderAndThreads) {
  // One CD partition, peeled under every pop order and thread count: each
  // subset is peeled whole by one thread, so tip numbers and the FD work
  // counters never depend on which thread took it or when.
  const BipartiteGraph g = ChungLuBipartite(400, 260, 3000, 0.8, 0.8, 778);
  PeelStats cd_stats;
  const CdResult cd = ReceiptCd(g, Options(8, 2), &cd_stats);
  std::vector<Count> reference;
  PeelStats reference_stats;
  for (const int threads : {1, 2, 4}) {
    for (const FdOrder order : {FdOrder::kCostDescending, FdOrder::kCreation}) {
      PeelStats stats;
      std::vector<Count> tips(g.num_u(), 0);
      ReceiptFd(g, cd, Options(8, threads, true, true, order), tips, &stats);
      if (reference.empty()) {
        reference = tips;
        reference_stats = stats;
        EXPECT_GT(stats.wedges_fd, 0u);
        continue;
      }
      const std::string config =
          "threads=" + std::to_string(threads) + " order=" +
          (order == FdOrder::kCreation ? "creation" : "lpt");
      EXPECT_EQ(tips, reference) << config;
      EXPECT_EQ(stats.wedges_fd, reference_stats.wedges_fd) << config;
      EXPECT_EQ(stats.huc_recounts, reference_stats.huc_recounts) << config;
      EXPECT_EQ(stats.dgm_compactions, reference_stats.dgm_compactions)
          << config;
    }
  }
}

TEST(ReceiptFdTest, MoreThreadsThanSubsetsMatchesBup) {
  // Idle threads find no task left at once and join.
  const BipartiteGraph g = ChungLuBipartite(180, 120, 800, 0.6, 0.6, 157);
  PeelStats stats;
  const TipOptions options = Options(2, 6);
  const CdResult cd = ReceiptCd(g, options, &stats);
  ASSERT_LT(cd.subsets.size(), 6u);
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, tips, &stats);
  TipOptions bup_options;
  EXPECT_EQ(tips, BupDecompose(g, bup_options).tip_numbers);
}

TEST(ReceiptFdTest, CancelledFdPeelsNoSubset) {
  // ReceiptDecompose skips FD once CD is cancelled, so FD is driven here
  // directly: an uncancelled CD, then FD under an already-cancelled
  // control. No task may start, so no number is written and no wedge is
  // counted.
  const BipartiteGraph g = ChungLuBipartite(250, 150, 1100, 0.6, 0.6, 111);
  PeelStats cd_stats;
  const CdResult cd = ReceiptCd(g, Options(8, 2), &cd_stats);
  ASSERT_GT(cd.subsets.size(), 1u);
  constexpr Count kUntouched = std::numeric_limits<Count>::max();
  for (const int threads : {1, 4}) {
    engine::PeelControl control;
    control.RequestCancel();
    TipOptions options = Options(8, threads);
    options.control = &control;
    PeelStats stats;
    stats.wedges_fd = 17;
    std::vector<Count> tips(g.num_u(), kUntouched);
    ReceiptFd(g, cd, options, tips, &stats);
    EXPECT_EQ(stats.wedges_fd, 17u) << "threads " << threads;
    EXPECT_EQ(stats.huc_recounts, 0u) << "threads " << threads;
    EXPECT_EQ(control.peeled(), 0u) << "threads " << threads;
    for (VertexId u = 0; u < g.num_u(); ++u) {
      ASSERT_EQ(tips[u], kUntouched) << "threads " << threads << " u " << u;
    }
  }
}

TEST(ReceiptFdTest, CdFillsOnePredictedCostPerSubset) {
  // ReceiptFd orders its task list by cd.predicted_costs and has no
  // fallback when they are missing, so ReceiptCd must fill one cost per
  // subset for every partition count, including P larger than |U|.
  const BipartiteGraph g = ChungLuBipartite(400, 260, 3000, 0.8, 0.8, 777);
  for (const int partitions : {1, 8, 150, 1000}) {
    for (const int threads : {1, 3}) {
      PeelStats stats;
      const CdResult cd = ReceiptCd(g, Options(partitions, threads), &stats);
      ASSERT_FALSE(cd.subsets.empty()) << "P=" << partitions;
      EXPECT_EQ(cd.predicted_costs.size(), cd.subsets.size())
          << "P=" << partitions << " T=" << threads;
    }
  }
}

TEST(ReceiptFdTest, OptimizationFlagsDoNotChangeResults) {
  const BipartiteGraph g = ChungLuBipartite(220, 130, 950, 0.4, 0.9, 127);
  PeelStats s[4];
  const auto base = RunFd(g, Options(7, 2, false, false), &s[0]);
  EXPECT_EQ(RunFd(g, Options(7, 2, true, false), &s[1]), base);
  EXPECT_EQ(RunFd(g, Options(7, 2, false, true), &s[2]), base);
  EXPECT_EQ(RunFd(g, Options(7, 2, true, true), &s[3]), base);
}

TEST(ReceiptFdTest, FdAddsNoSyncRounds) {
  const BipartiteGraph g = ChungLuBipartite(200, 120, 800, 0.5, 0.5, 131);
  const TipOptions options = Options(8, 3);
  PeelStats cd_stats;
  const CdResult cd = ReceiptCd(g, options, &cd_stats);
  const uint64_t rounds_after_cd = cd_stats.sync_rounds;
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, tips, &cd_stats);
  EXPECT_EQ(cd_stats.sync_rounds, rounds_after_cd);
  EXPECT_GT(cd_stats.wedges_fd, 0u);
}

TEST(ReceiptFdTest, SubsetWedgeCountsMatchNaive) {
  const BipartiteGraph g = ChungLuBipartite(120, 80, 500, 0.5, 0.5, 137);
  // Assign an arbitrary 4-way partition.
  std::vector<uint32_t> subset_of(g.num_u());
  for (VertexId u = 0; u < g.num_u(); ++u) subset_of[u] = u % 4;
  const std::vector<Count> fast =
      ComputeSubsetWedgeCounts(g, subset_of, 4, 2);
  // Naive: for every V vertex and subset, C(neighbors-in-subset, 2).
  std::vector<Count> slow(4, 0);
  for (VertexId vl = 0; vl < g.num_v(); ++vl) {
    std::vector<Count> per_subset(4, 0);
    for (const VertexId u : g.Neighbors(g.VGlobal(vl))) {
      ++per_subset[subset_of[u]];
    }
    for (uint32_t s = 0; s < 4; ++s) slow[s] += Choose2(per_subset[s]);
  }
  EXPECT_EQ(fast, slow);
}

TEST(ReceiptFdTest, FdWedgesAreSubsetOfCdWedges) {
  // §3: FD explores only intra-subset wedges of the induced subgraphs, a
  // small fraction of the full graph's wedge mass (Fig. 8: < 15%... here we
  // just require strictly fewer than CD's traversal on a non-trivial graph).
  const BipartiteGraph g = ChungLuBipartite(400, 250, 1600, 0.6, 0.6, 139);
  const TipOptions options = Options(12, 2, /*huc=*/false, /*dgm=*/false);
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, options, &stats);
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, tips, &stats);
  EXPECT_LT(stats.wedges_fd, stats.wedges_cd);
}

TEST(ReceiptFdTest, SingleVertexSubsetsHandled) {
  // Degenerate partition: huge P forces many tiny subsets.
  const BipartiteGraph g = ChungLuBipartite(60, 40, 250, 0.5, 0.5, 149);
  PeelStats stats;
  const std::vector<Count> tips = RunFd(g, Options(1000, 2), &stats);
  TipOptions bup_options;
  EXPECT_EQ(tips, BupDecompose(g, bup_options).tip_numbers);
}

}  // namespace
}  // namespace receipt

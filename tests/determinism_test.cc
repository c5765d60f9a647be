// Determinism guarantees: the machine-independent quantities the paper
// reports (wedge counts, sync rounds, subset structure) must be identical
// across thread counts and repeated runs — this is what makes the benchmark
// counters reproducible.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "tip/parb.h"
#include "tip/receipt.h"
#include "tip/receipt_cd.h"
#include "tip/receipt_fd.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

TipOptions Options(int threads) {
  TipOptions options;
  options.num_threads = threads;
  options.num_partitions = 10;
  return options;
}

TEST(DeterminismTest, ReceiptCountersInvariantAcrossThreads) {
  const BipartiteGraph g = ChungLuBipartite(400, 250, 1800, 0.6, 0.7, 601);
  const TipResult reference = ReceiptDecompose(g, Options(1));
  for (const int threads : {2, 4, 8}) {
    const TipResult r = ReceiptDecompose(g, Options(threads));
    EXPECT_EQ(r.tip_numbers, reference.tip_numbers) << threads;
    EXPECT_EQ(r.stats.TotalWedges(), reference.stats.TotalWedges())
        << threads;
    EXPECT_EQ(r.stats.sync_rounds, reference.stats.sync_rounds) << threads;
    EXPECT_EQ(r.stats.huc_recounts, reference.stats.huc_recounts)
        << threads;
    EXPECT_EQ(r.stats.num_subsets, reference.stats.num_subsets) << threads;
    EXPECT_EQ(r.range_bounds, reference.range_bounds) << threads;
    EXPECT_EQ(r.subset_of, reference.subset_of) << threads;
  }
}

// The coarse round loop forks every peel round with a grain of one entity,
// so how the round's entities land on threads varies from run to run; the
// coarse artifacts and the work counters must not — checked on paper
// analogues whose rounds range from one vertex to thousands.
TEST(DeterminismTest, CoarseDispatchInvariantAcrossThreadsOnAnalogues) {
  for (const char* name : {"or", "de"}) {
    SCOPED_TRACE(name);
    const BipartiteGraph g = MakePaperAnalogue(name);
    TipOptions options;
    options.num_partitions = 150;
    options.num_threads = 1;
    PeelStats reference_stats;  // CD only: FD adds its own re-counts
    const CdResult reference = ReceiptCd(g, options, &reference_stats);
    std::vector<Count> reference_tips(g.num_u(), 0);
    PeelStats fd_stats;
    ReceiptFd(g, reference, options, reference_tips, &fd_stats);
    for (const int threads : {2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      options.num_threads = threads;
      PeelStats stats;
      const CdResult cd = ReceiptCd(g, options, &stats);
      std::vector<Count> tips(g.num_u(), 0);
      ReceiptFd(g, cd, options, tips, &fd_stats);
      EXPECT_EQ(cd.subsets, reference.subsets);
      EXPECT_EQ(cd.subset_of, reference.subset_of);
      EXPECT_EQ(cd.bounds, reference.bounds);
      EXPECT_EQ(cd.init_support, reference.init_support);
      EXPECT_EQ(cd.predicted_costs, reference.predicted_costs);
      EXPECT_EQ(tips, reference_tips);
      EXPECT_EQ(stats.sync_rounds, reference_stats.sync_rounds);
      EXPECT_EQ(stats.wedges_cd, reference_stats.wedges_cd);
      EXPECT_EQ(stats.huc_recounts, reference_stats.huc_recounts);
    }
  }
}

TEST(DeterminismTest, ReceiptRepeatedRunsIdentical) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1400, 0.5, 0.8, 603);
  const TipResult a = ReceiptDecompose(g, Options(4));
  const TipResult b = ReceiptDecompose(g, Options(4));
  EXPECT_EQ(a.tip_numbers, b.tip_numbers);
  EXPECT_EQ(a.stats.TotalWedges(), b.stats.TotalWedges());
  EXPECT_EQ(a.stats.dgm_compactions, b.stats.dgm_compactions);
}

TEST(DeterminismTest, ParbRoundsInvariantAcrossThreads) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1200, 0.5, 0.5, 607);
  const TipResult reference = ParbDecompose(g, Options(1));
  for (const int threads : {2, 4}) {
    const TipResult r = ParbDecompose(g, Options(threads));
    EXPECT_EQ(r.tip_numbers, reference.tip_numbers);
    EXPECT_EQ(r.stats.sync_rounds, reference.stats.sync_rounds);
    EXPECT_EQ(r.stats.wedges_other, reference.stats.wedges_other);
  }
}

TEST(DeterminismTest, ReceiptWingInvariantAcrossThreadsAndPartitions) {
  const BipartiteGraph g = ChungLuBipartite(100, 70, 450, 0.5, 0.6, 609);
  const WingResult reference = WingDecompose(g, 1);
  for (const int partitions : {2, 8, 32}) {
    PeelStats one_thread;
    for (const int threads : {1, 2, 4}) {
      ReceiptWingOptions options;
      options.num_threads = threads;
      options.num_partitions = partitions;
      const WingResult r = ReceiptWingDecompose(g, options);
      EXPECT_EQ(r.wing_numbers, reference.wing_numbers)
          << "T=" << threads << " P=" << partitions;
      // The work counters too: rounds end at a barrier, and the runs are
      // compacted only there.
      if (threads == 1) one_thread = r.stats;
      EXPECT_EQ(r.stats.sync_rounds, one_thread.sync_rounds);
      EXPECT_EQ(r.stats.wedges_counting, one_thread.wedges_counting);
      EXPECT_EQ(r.stats.wedges_cd, one_thread.wedges_cd);
      EXPECT_EQ(r.stats.wedges_fd, one_thread.wedges_fd);
    }
  }
}

TEST(DeterminismTest, GeneratorsStableAcrossCalls) {
  for (const std::string& name : PaperAnalogueNames()) {
    const BipartiteGraph a = MakePaperAnalogue(name);
    const BipartiteGraph b = MakePaperAnalogue(name);
    EXPECT_EQ(a.ToEdges(), b.ToEdges()) << name;
  }
}

}  // namespace
}  // namespace receipt

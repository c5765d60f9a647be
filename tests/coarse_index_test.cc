// Output-sensitive coarse decomposition (SupportIndex): the coarse step
// determines range bounds, maintains ⊲⊳init and builds each range's first
// active set through a frontier-fed support histogram. These suites check
// the index against a brute-force model, the coarse step's output against
// the BUP / sequential wing oracles for every algorithm, generator shape
// and thread count, that the coarse results and build counters do not
// depend on the thread count, and that the pool-resident index allocates
// nothing once warm.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/support_index.h"
#include "engine/workspace.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "tip/receipt_cd.h"
#include "util/parallel.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt {
namespace {

std::vector<int> SweepThreads() {
  std::vector<int> threads = {1, 4};
  const int hw = MaxThreads();
  if (hw != 1 && hw != 4) threads.push_back(hw);
  return threads;
}

BipartiteGraph SweepGraph(bool skewed, uint32_t seed) {
  // Skewed: heavy-tailed degrees, long peeling tails — the regime the
  // index exists for. Uniform: flat degrees, few and wide ranges.
  return skewed ? ChungLuBipartite(400, 260, 3000, 0.8, 0.8, seed)
                : RandomBipartite(400, 260, 3000, seed);
}

template <typename Id>
void ExpectSameRanges(const engine::RangeResult<Id>& a,
                      const engine::RangeResult<Id>& b) {
  EXPECT_EQ(a.bounds, b.bounds);
  EXPECT_EQ(a.subsets, b.subsets);
  EXPECT_EQ(a.subset_of, b.subset_of);
  EXPECT_EQ(a.init_support, b.init_support);
  // The cost-model input rides along: each range's peel cost is predicted
  // with exact integer arithmetic, independent of the schedule.
  EXPECT_EQ(a.predicted_costs, b.predicted_costs);
}

// How each active set was built is as deterministic as what it contains.
void ExpectSameBuilds(const PeelStats& a, const PeelStats& b) {
  EXPECT_EQ(a.frontier_rounds, b.frontier_rounds);
  EXPECT_EQ(a.index_build_rounds, b.index_build_rounds);
}

// RECEIPT's exactness theorem, checked against an oracle: every entity's
// true peel number lies inside the range of the subset the coarse step put
// it in, and the subsets partition the entity space.
template <typename Id>
void ExpectRangesHoldOracle(const engine::RangeResult<Id>& ranges,
                            const std::vector<Count>& oracle) {
  ASSERT_EQ(ranges.subset_of.size(), oracle.size());
  ASSERT_EQ(ranges.bounds.size(), ranges.subsets.size() + 1);
  size_t members = 0;
  for (const auto& subset : ranges.subsets) members += subset.size();
  EXPECT_EQ(members, oracle.size());
  for (size_t e = 0; e < oracle.size(); ++e) {
    const uint32_t i = ranges.subset_of[e];
    ASSERT_LT(i, ranges.subsets.size());
    EXPECT_GE(oracle[e], ranges.bounds[i]) << "entity " << e;
    EXPECT_LT(oracle[e], ranges.bounds[i + 1]) << "entity " << e;
    EXPECT_GE(ranges.init_support[e], ranges.bounds[i]) << "entity " << e;
  }
}

// ---------------------------------------------------------------------------
// SupportIndex unit behavior against a brute-force model.
// ---------------------------------------------------------------------------

TEST(SupportIndexTest, FindBoundMatchesBruteForce) {
  const uint64_t n = 500;
  std::vector<Count> support(n);
  std::vector<Count> cost(n);
  std::vector<bool> alive(n, true);
  for (uint64_t e = 0; e < n; ++e) {
    support[e] = (e * 37) % 97;
    cost[e] = 1 + (e * 13) % 7;
    if (e % 11 == 0) alive[e] = false;
  }

  engine::SupportIndex index;
  index.Rebuild(
      n, [&](uint64_t e) { return alive[e]; },
      [&](uint64_t e) { return support[e]; }, cost);

  // Returns (bound, cost mass strictly below the bound): the bound the
  // index must find and the range cost it must predict.
  const auto brute = [&](Count need) -> std::pair<Count, Count> {
    std::vector<std::pair<Count, Count>> sc;
    for (uint64_t e = 0; e < n; ++e) {
      if (alive[e]) sc.emplace_back(support[e], cost[e]);
    }
    if (sc.empty()) return {kInvalidCount, 0};
    std::sort(sc.begin(), sc.end());
    Count bound = sc.back().first + 1;
    Count acc = 0;
    for (const auto& [s, c] : sc) {
      acc += c;
      if (acc >= need) {
        bound = s + 1;
        break;
      }
    }
    Count mass = 0;
    for (const auto& [s, c] : sc) {
      if (s < bound) mass += c;
    }
    return {bound, mass};
  };
  const auto supports = [&](uint64_t e) { return support[e]; };
  const auto expect_brute = [&](Count need, PeelStats* stats) {
    Count predicted = kInvalidCount;
    const Count bound = index.FindBound(need, supports, stats, &predicted);
    const auto [want_bound, want_mass] = brute(need);
    EXPECT_EQ(bound, want_bound) << "need " << need;
    EXPECT_EQ(predicted, want_mass) << "need " << need;
  };

  PeelStats stats;
  for (const Count need : {Count{1}, Count{50}, Count{700}, Count{1800},
                           Count{100000}}) {
    expect_brute(need, &stats);
  }
  EXPECT_GT(stats.bound_walk_buckets, 0u);

  // Remove a batch (as peeled rounds do), move a few survivors (as
  // boundary reconciliation does), and re-check every target.
  for (uint64_t e = 0; e < n; e += 5) {
    if (alive[e]) {
      index.Remove(e, cost[e]);
      alive[e] = false;
    }
  }
  for (uint64_t e = 1; e < n; e += 7) {
    if (alive[e]) {
      support[e] = support[e] / 2;
      index.MoveTo(e, support[e], cost[e]);
    }
  }
  SCOPED_TRACE("after mutation");
  for (const Count need : {Count{1}, Count{50}, Count{700}, Count{1800},
                           Count{100000}}) {
    expect_brute(need, &stats);
  }
}

TEST(SupportIndexTest, WideSupportRangeUsesBucketedRefine) {
  // Supports far above the leaf-bucket budget force a power-of-two bucket
  // width > 1, so FindBound must resolve crossings through the in-bucket
  // refine rather than bucket arithmetic alone.
  const uint64_t n = 300;
  std::vector<Count> support(n);
  std::vector<Count> cost(n, 1);
  for (uint64_t e = 0; e < n; ++e) {
    support[e] = e * 1'000'003;  // spread across ~300M support values
  }
  engine::SupportIndex index;
  index.Rebuild(
      n, [](uint64_t) { return true; },
      [&](uint64_t e) { return support[e]; }, cost);
  ASSERT_LE(index.num_buckets(), engine::SupportIndex::kMaxBuckets);

  // Unit costs over distinct supports: the range opened by the bound for
  // `need` holds exactly `need` entities, so that is its predicted cost.
  PeelStats stats;
  const auto supports = [&](uint64_t e) { return support[e]; };
  Count predicted = 0;
  for (const Count need : {Count{1}, Count{2}, Count{150}, Count{300}}) {
    EXPECT_EQ(index.FindBound(need, supports, &stats, &predicted),
              support[need - 1] + 1)
        << "need " << need;
    EXPECT_EQ(predicted, need) << "need " << need;
  }
  // Total mass short of the target: maximum alive support + 1, and the
  // range holds everything.
  EXPECT_EQ(index.FindBound(Count{301}, supports, &stats, &predicted),
            support[n - 1] + 1);
  EXPECT_EQ(predicted, Count{n});
  EXPECT_GT(stats.histogram_refines, 0u);
}

// ---------------------------------------------------------------------------
// Coarse step against the oracle: RECEIPT CD (tip).
// ---------------------------------------------------------------------------

class CoarseIndexTipSweep
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(CoarseIndexTipSweep, RangesHoldBupNumbersAtEveryThreadCount) {
  const auto [skewed, optimized] = GetParam();
  const BipartiteGraph g = SweepGraph(skewed, skewed ? 311u : 313u);
  const TipResult bup = BupDecompose(g, TipOptions{});

  for (const int threads : SweepThreads()) {
    TipOptions options;
    options.num_threads = threads;
    options.num_partitions = 8;
    options.use_huc = optimized;
    options.use_dgm = optimized;

    PeelStats stats;
    const CdResult cd = ReceiptCd(g, options, &stats);
    ExpectRangesHoldOracle(cd, bup.tip_numbers);

    // Bound determination runs through the index, which is built once up
    // front (and again after every HUC re-count).
    EXPECT_GT(stats.bound_walk_buckets, 0u);
    EXPECT_GE(stats.index_rebuild_elements,
              static_cast<uint64_t>(g.num_u()) * (1 + stats.huc_recounts));
    EXPECT_GE(stats.index_build_rounds, stats.num_subsets);

    EXPECT_EQ(ReceiptDecompose(g, options).tip_numbers, bup.tip_numbers)
        << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoarseIndexTipSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// Thread-count invariance of the coarse step (the delta lists are
// schedule-dependent; the results and the direction taken must not be).
TEST(CoarseIndexTipTest, IndexedPathIsThreadCountInvariant) {
  const BipartiteGraph g = SweepGraph(/*skewed=*/true, 317u);
  TipOptions options;
  options.num_partitions = 6;
  options.num_threads = 1;
  PeelStats s1;
  const CdResult one = ReceiptCd(g, options, &s1);
  EXPECT_GT(s1.frontier_rounds, 0u);
  for (const int threads : SweepThreads()) {
    options.num_threads = threads;
    PeelStats st;
    const CdResult many = ReceiptCd(g, options, &st);
    ExpectSameRanges(one, many);
    ExpectSameBuilds(s1, st);
  }
}

// ---------------------------------------------------------------------------
// Coarse step against the oracle: RECEIPT-W (wing).
// ---------------------------------------------------------------------------

class CoarseIndexWingSweep : public ::testing::TestWithParam<bool> {};

TEST_P(CoarseIndexWingSweep, RangesHoldWingNumbersAtEveryThreadCount) {
  const bool skewed = GetParam();
  const BipartiteGraph g = skewed
                               ? ChungLuBipartite(70, 50, 320, 0.7, 0.7, 331)
                               : RandomBipartite(70, 50, 320, 337);
  const WingResult sequential = WingDecompose(g, /*num_threads=*/1);

  for (const int threads : SweepThreads()) {
    for (const int partitions : {2, 5}) {
      ReceiptWingOptions options;
      options.num_threads = threads;
      options.num_partitions = partitions;

      PeelStats stats;
      const auto coarse = ReceiptWingCoarse(g, options, &stats);
      ExpectRangesHoldOracle(coarse, sequential.wing_numbers);
      EXPECT_GT(stats.bound_walk_buckets, 0u);
      // Edge peeling never re-counts: one index build per range.
      EXPECT_EQ(stats.index_build_rounds, stats.num_subsets);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoarseIndexWingSweep, ::testing::Bool());

TEST(CoarseIndexWingTest, CoarseStepIsThreadCountInvariant) {
  const BipartiteGraph g = ChungLuBipartite(70, 50, 320, 0.7, 0.7, 331);
  ReceiptWingOptions options;
  options.num_partitions = 5;
  options.num_threads = 1;
  PeelStats s1;
  const auto one = ReceiptWingCoarse(g, options, &s1);
  EXPECT_GT(s1.frontier_rounds, 0u);
  for (const int threads : SweepThreads()) {
    options.num_threads = threads;
    PeelStats st;
    const auto many = ReceiptWingCoarse(g, options, &st);
    ExpectSameRanges(one, many);
    ExpectSameBuilds(s1, st);
    EXPECT_EQ(s1.sync_rounds, st.sync_rounds);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: final numbers equal the oracles.
// ---------------------------------------------------------------------------

TEST(CoarseIndexEndToEndTest, TipNumbersMatchBup) {
  const BipartiteGraph g = SweepGraph(/*skewed=*/true, 347u);
  const TipResult bup = BupDecompose(g, TipOptions{});

  for (const int partitions : {1, 7}) {
    TipOptions options;
    options.num_threads = 3;
    options.num_partitions = partitions;
    const TipResult r = ReceiptDecompose(g, options);
    EXPECT_EQ(r.tip_numbers, bup.tip_numbers) << "P=" << partitions;
  }
}

TEST(CoarseIndexEndToEndTest, WingNumbersMatchSequential) {
  const BipartiteGraph g = ChungLuBipartite(40, 30, 170, 0.6, 0.6, 353);
  const WingResult sequential = WingDecompose(g, /*num_threads=*/1);

  for (const int partitions : {1, 4}) {
    ReceiptWingOptions options;
    options.num_threads = 2;
    options.num_partitions = partitions;
    const WingResult r = ReceiptWingDecompose(g, options);
    EXPECT_EQ(r.wing_numbers, sequential.wing_numbers) << "P=" << partitions;
  }
}

// ---------------------------------------------------------------------------
// Arena residency: the index allocates nothing once warm.
// ---------------------------------------------------------------------------

TEST(CoarseIndexArenaTest, SupportIndexDoesNotGrowAfterWarmup) {
  const BipartiteGraph g = SweepGraph(/*skewed=*/true, 359u);
  engine::WorkspacePool pool;
  TipOptions options;
  options.num_threads = 2;
  options.num_partitions = 6;

  PeelStats warmup_stats;
  const CdResult warm = ReceiptCd(g, options, pool, &warmup_stats);
  const uint64_t growths_warm = pool.TotalGrowths();
  EXPECT_GT(growths_warm, 0u);

  for (int repeat = 0; repeat < 3; ++repeat) {
    PeelStats stats;
    const CdResult again = ReceiptCd(g, options, pool, &stats);
    ExpectSameRanges(warm, again);
  }
  EXPECT_EQ(pool.TotalGrowths(), growths_warm)
      << "SupportIndex (or other pool scratch) grew after warmup";
}

}  // namespace
}  // namespace receipt

// Tests for the parallel primitives substrate.

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/stats.h"
#include "util/types.h"

namespace receipt {
namespace {

TEST(ParallelUtilTest, ParallelForCoversAllIndices) {
  for (const int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(hits.size(), threads, [&hits](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelUtilTest, ParallelForWithContextUsesDistinctContexts) {
  struct Ctx {
    uint64_t sum = 0;
  };
  std::vector<Ctx> ctxs(4);
  ParallelForWithContext(10000, 4, ctxs,
                         [](Ctx& ctx, size_t i) { ctx.sum += i; });
  uint64_t total = 0;
  for (const Ctx& c : ctxs) total += c.sum;
  EXPECT_EQ(total, 10000ull * 9999 / 2);
}

// The FD task loop's shape: grain 1, few items, possibly fewer than
// threads, with a skewed cost per item. Every index must run exactly once
// and the per-context tallies must account for all of them.
TEST(ParallelUtilTest, ParallelForWithContextAtGrainOneRunsEachIndexOnce) {
  struct Ctx {
    uint64_t items = 0;
    uint64_t work = 0;
  };
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{64}}) {
    std::vector<std::atomic<int>> hits(n);
    std::vector<Ctx> ctxs(4);
    // Item 0 is heavy, the rest cost almost nothing.
    const auto cost = [](size_t i) { return i == 0 ? 200000u : 1u + i % 3; };
    ParallelForWithContext(
        n, 4, ctxs,
        [&](Ctx& ctx, size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          ++ctx.items;
          // One add per unit, so the heavy item really takes longer.
          for (uint64_t k = 0; k < cost(i); ++k) {
            AtomicAdd(&ctx.work, uint64_t{1});
          }
        },
        /*chunk=*/1);
    uint64_t items = 0;
    uint64_t work = 0;
    uint64_t expected_work = 0;
    for (const Ctx& ctx : ctxs) {
      items += ctx.items;
      work += ctx.work;
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n " << n << " i " << i;
      expected_work += cost(i);
    }
    EXPECT_EQ(items, n);
    EXPECT_EQ(work, expected_work) << "n " << n;
  }
}

TEST(ParallelUtilTest, AtomicAddConcurrent) {
  uint64_t value = 0;
  ParallelFor(10000, 4, [&value](size_t) { AtomicAdd(&value, uint64_t{1}); });
  EXPECT_EQ(value, 10000u);
}

TEST(ParallelUtilTest, AtomicClampedSubBasics) {
  Count v = 100;
  EXPECT_EQ(AtomicClampedSub(&v, Count{30}, Count{10}), 70u);
  EXPECT_EQ(v, 70u);
  EXPECT_EQ(AtomicClampedSub(&v, Count{65}, Count{10}), 10u);  // clamps
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(AtomicClampedSub(&v, Count{5}, Count{10}), 10u);  // at floor
}

TEST(ParallelUtilTest, AtomicClampedSubExactBoundary) {
  Count v = 40;
  // cur − delta == floor exactly.
  EXPECT_EQ(AtomicClampedSub(&v, Count{30}, Count{10}), 10u);
}

TEST(ParallelUtilTest, AtomicClampedSubConcurrentNeverBelowFloor) {
  Count v = 1000;
  ParallelFor(500, 4, [&v](size_t) {
    AtomicClampedSub(&v, Count{3}, Count{100});
  });
  EXPECT_EQ(v, 100u);  // 500·3 > 900 available above the floor
}

TEST(ParallelUtilTest, AtomicClampedSubConcurrentExactSum) {
  Count v = 10000;
  ParallelFor(100, 4, [&v](size_t) {
    AtomicClampedSub(&v, Count{7}, Count{0});
  });
  EXPECT_EQ(v, 10000u - 700u);  // no decrement may be lost (Lemma 2)
}

// Sizes on both sides of kParallelCutoff, including one that the block
// count does not divide, so the inline loop, the block partials and the
// short last block are all checked against the sequential sum.
TEST(ParallelUtilTest, ParallelReduceSumMatchesSequential) {
  std::vector<uint64_t> scratch;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{1000}, size_t{10007}}) {
    const auto make = [](size_t i) { return static_cast<uint64_t>(i % 97); };
    uint64_t expected = 0;
    for (size_t i = 0; i < n; ++i) expected += make(i);
    for (const int threads : {1, 3, 4}) {
      EXPECT_EQ(ParallelReduceSum<uint64_t>(n, threads, make), expected)
          << "n " << n << " threads " << threads;
      // A reused scratch buffer must not carry partials between calls.
      EXPECT_EQ(ParallelReduceSum<uint64_t>(n, threads, make, &scratch),
                expected)
          << "n " << n << " threads " << threads << " with scratch";
    }
  }
}

TEST(ParallelUtilTest, ParallelReduceMaxMatchesSequential) {
  for (const size_t n : {size_t{0}, size_t{1000}, size_t{10007}}) {
    // One peak in the last, short block; everything else is small.
    const auto make = [n](size_t i) {
      return i + 1 == n ? uint64_t{1} << 40 : static_cast<uint64_t>(i % 13);
    };
    const uint64_t expected = n == 0 ? 7 : uint64_t{1} << 40;
    for (const int threads : {1, 3, 4}) {
      EXPECT_EQ(ParallelReduceMax<uint64_t>(n, threads, make, 7), expected)
          << "n " << n << " threads " << threads;
    }
  }
}

TEST(ParallelUtilTest, PeelStatsMergeAndToString) {
  PeelStats a;
  a.wedges_cd = 10;
  a.sync_rounds = 2;
  a.seconds_cd = 0.5;
  PeelStats b;
  b.wedges_cd = 5;
  b.wedges_fd = 7;
  b.huc_recounts = 1;
  a.Merge(b);
  EXPECT_EQ(a.wedges_cd, 15u);
  EXPECT_EQ(a.wedges_fd, 7u);
  EXPECT_EQ(a.huc_recounts, 1u);
  EXPECT_EQ(a.TotalWedges(), 22u);
  EXPECT_NE(a.ToString().find("sync_rounds=2"), std::string::npos);
}

}  // namespace
}  // namespace receipt

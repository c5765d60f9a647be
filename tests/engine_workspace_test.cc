// Tests for the engine layer's reusable workspaces: allocation happens once
// per decomposition, scratch state is clean between kernel invocations and
// partitions, and the shared services (FindRangeBound, GraphMaintenance)
// behave at their edges.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "engine/counting.h"
#include "engine/peel_engine.h"
#include "graph/generators.h"
#include "tip/receipt_cd.h"
#include "tip/receipt_fd.h"
#include "util/stats.h"
#include "wing/receipt_wing.h"

namespace receipt {
namespace {

TEST(WorkspaceTest, WedgeCountersAre64Bit) {
  // Satellite requirement: dense per-thread wedge counters must be 64-bit
  // end-to-end (Choose2 of a large multiplicity overflows 32 bits).
  static_assert(
      std::is_same_v<decltype(engine::PeelWorkspace::wedge_count)::value_type,
                     uint64_t>);
  static_assert(
      std::is_same_v<decltype(engine::PeelWorkspace::wedges_traversed),
                     uint64_t>);
  SUCCEED();
}

TEST(WorkspaceTest, PrepareIsIdempotent) {
  engine::WorkspacePool pool;
  pool.Prepare(4, 1000, 500);
  const uint64_t growths_after_first = pool.TotalGrowths();
  EXPECT_GT(growths_after_first, 0u);
  // Same or smaller shapes must not allocate.
  pool.Prepare(4, 1000, 500);
  pool.Prepare(2, 800, 100);
  EXPECT_EQ(pool.TotalGrowths(), growths_after_first);
  // A larger shape grows once more, then is stable again.
  pool.Prepare(4, 2000, 500);
  const uint64_t growths_after_growth = pool.TotalGrowths();
  EXPECT_GT(growths_after_growth, growths_after_first);
  pool.Prepare(4, 2000, 500);
  EXPECT_EQ(pool.TotalGrowths(), growths_after_growth);
}

TEST(WorkspaceTest, CountingReusesWorkspacesAcrossRuns) {
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1500, 0.6, 0.6, 901);
  const DynamicGraph live(g, g.DegreeDescendingRanks());
  std::vector<Count> support(g.num_vertices(), 0);

  engine::WorkspacePool pool;
  const uint64_t w1 =
      engine::CountVertexButterflies(live, pool.Team(2), support);
  const std::vector<Count> first = support;
  const uint64_t growths_warm = pool.TotalGrowths();

  for (int run = 0; run < 3; ++run) {
    const uint64_t w =
        engine::CountVertexButterflies(live, pool.Team(2), support);
    EXPECT_EQ(w, w1);
    EXPECT_EQ(support, first);
  }
  // Warm pool: repeated counting allocates nothing.
  EXPECT_EQ(pool.TotalGrowths(), growths_warm);
}

TEST(WorkspaceTest, ReceiptSharedPoolDoesNotReallocateOnRepeat) {
  // The RECEIPT flow (counting + CD rounds + per-partition FD) through one
  // pool: a second identical decomposition must not grow any buffer.
  // Single-threaded so FD task→workspace assignment is deterministic (with
  // dynamic task allocation, which thread warms which buffer varies).
  const BipartiteGraph g = ChungLuBipartite(400, 250, 2000, 0.6, 0.7, 903);
  TipOptions options;
  options.num_threads = 1;
  options.num_partitions = 8;

  engine::WorkspacePool pool;
  PeelStats stats1;
  const CdResult cd1 = ReceiptCd(g, options, pool, &stats1);
  std::vector<Count> tips1(g.num_u(), 0);
  ReceiptFd(g, cd1, options, pool, tips1, &stats1);
  const uint64_t growths_warm = pool.TotalGrowths();

  PeelStats stats2;
  const CdResult cd2 = ReceiptCd(g, options, pool, &stats2);
  std::vector<Count> tips2(g.num_u(), 0);
  ReceiptFd(g, cd2, options, pool, tips2, &stats2);

  EXPECT_EQ(pool.TotalGrowths(), growths_warm);
  EXPECT_EQ(tips1, tips2);
  EXPECT_EQ(stats1.TotalWedges(), stats2.TotalWedges());
}

TEST(WorkspaceTest, ScratchIsCleanAfterDecomposition) {
  // The zero-state invariant: kernels reset exactly what they touched, so
  // between partitions (and after a whole decomposition) the dense arrays
  // are all-zero and the frontier buffers are drained.
  const BipartiteGraph g = ChungLuBipartite(300, 200, 1500, 0.5, 0.8, 905);
  TipOptions options;
  options.num_threads = 2;
  options.num_partitions = 6;

  engine::WorkspacePool pool;
  PeelStats stats;
  const CdResult cd = ReceiptCd(g, options, pool, &stats);
  std::vector<Count> tips(g.num_u(), 0);
  ReceiptFd(g, cd, options, pool, tips, &stats);

  for (int tid = 0; tid < pool.num_workspaces(); ++tid) {
    engine::PeelWorkspace& ws = pool.Get(tid);
    for (const uint64_t c : ws.wedge_count) EXPECT_EQ(c, 0u) << "tid " << tid;
    for (const EdgeOffset m : ws.edge_mark) EXPECT_EQ(m, 0u) << "tid " << tid;
    EXPECT_TRUE(ws.touched.empty()) << "tid " << tid;
    EXPECT_TRUE(ws.frontier.empty()) << "tid " << tid;
    EXPECT_TRUE(ws.updates.empty()) << "tid " << tid;
  }
}

TEST(WorkspaceTest, FdArenaAndExtractorAreAllocationFreeWhenWarm) {
  // The per-partition structures RECEIPT FD used to allocate fresh — the
  // induced subgraph, its DynamicGraph view, and the MinExtractor backing
  // stores — now live in the workspace. After one warmup decomposition,
  // repeats must not grow any buffer, whatever extraction backend runs.
  const BipartiteGraph g = ChungLuBipartite(350, 220, 1700, 0.6, 0.7, 911);
  for (const MinExtraction extraction :
       {MinExtraction::kDAryHeap, MinExtraction::kBucketQueue,
        MinExtraction::kPairingHeap}) {
    TipOptions options;
    options.num_threads = 1;  // deterministic task → workspace assignment
    options.num_partitions = 7;
    options.min_extraction = extraction;

    engine::WorkspacePool pool;
    PeelStats stats;
    const CdResult cd = ReceiptCd(g, options, pool, &stats);
    std::vector<Count> tips_warm(g.num_u(), 0);
    ReceiptFd(g, cd, options, pool, tips_warm, &stats);
    const uint64_t growths_warm = pool.TotalGrowths();
    EXPECT_GT(growths_warm, 0u);

    // Growth counters are charged at Reset/Rebuild boundaries, so also pin
    // the raw capacity footprints — they catch growth whenever it happens.
    // The graph builders keep their scratch in these buffers: the edge sort
    // runs through the subgraph's CSR arrays, the rank-order scatter
    // through the view's, and the rank counting sort's buckets are
    // rank_scratch; each is pinned on its own.
    engine::PeelWorkspace& ws = pool.Get(0);
    InducedSubgraphArena& arena = ws.subgraph_arena;
    const size_t arena_footprint = arena.CapacityFootprint();
    const size_t extractor_footprint = ws.extractor.CapacityFootprint();
    const std::vector<size_t> parts_warm = {
        arena.subgraph.graph.CapacityFootprint(), arena.live.CapacityFootprint(),
        arena.ranks.capacity(), arena.rank_scratch.capacity(),
        arena.edges.capacity()};
    // One bucket per degree: never more than the ranks it orders.
    EXPECT_GT(arena.rank_scratch.capacity(), 0u);
    EXPECT_LE(arena.rank_scratch.capacity(), arena.ranks.capacity());

    for (int repeat = 0; repeat < 2; ++repeat) {
      PeelStats repeat_stats;
      const CdResult cd2 = ReceiptCd(g, options, pool, &repeat_stats);
      std::vector<Count> tips(g.num_u(), 0);
      ReceiptFd(g, cd2, options, pool, tips, &repeat_stats);
      EXPECT_EQ(tips, tips_warm) << "backend " << static_cast<int>(extraction);
    }
    EXPECT_EQ(pool.TotalGrowths(), growths_warm)
        << "backend " << static_cast<int>(extraction);
    EXPECT_EQ(arena.CapacityFootprint(), arena_footprint)
        << "backend " << static_cast<int>(extraction);
    EXPECT_EQ((std::vector<size_t>{
                  arena.subgraph.graph.CapacityFootprint(),
                  arena.live.CapacityFootprint(), arena.ranks.capacity(),
                  arena.rank_scratch.capacity(), arena.edges.capacity()}),
              parts_warm)
        << "backend " << static_cast<int>(extraction);
    EXPECT_EQ(ws.extractor.CapacityFootprint(), extractor_footprint)
        << "backend " << static_cast<int>(extraction);
  }
}

TEST(WorkspaceTest, WingFineStepBuffersStableWhenWarm) {
  // The wing fine step rebuilds its environment runs, state/flag/id
  // buffers and heap inside the workspace. Those buffers carry no growth
  // counters, so pin their capacity footprints directly: a second
  // identical decomposition must not grow any of them.
  const BipartiteGraph g = ChungLuBipartite(120, 80, 600, 0.6, 0.6, 917);
  ReceiptWingOptions options;
  options.num_threads = 1;  // deterministic task → workspace assignment
  options.num_partitions = 5;
  engine::WorkspacePool pool;
  options.workspace_pool = &pool;

  const WingResult warm = ReceiptWingDecompose(g, options);
  const uint64_t growths_warm = pool.TotalGrowths();

  engine::PeelWorkspace& ws = pool.Get(0);
  const auto wing_footprint = [&ws] {
    return ws.state_buffer.capacity() + ws.flag_buffer.capacity() +
           ws.id_buffer.capacity() + ws.env_runs.CapacityFootprint() +
           ws.edge_heap.Capacity() + ws.support_buffer.capacity() +
           ws.subgraph_arena.CapacityFootprint();
  };
  const size_t footprint_warm = wing_footprint();
  EXPECT_GT(footprint_warm, 0u);
  EXPECT_GT(ws.env_runs.entries.capacity(), 0u);

  for (int repeat = 0; repeat < 2; ++repeat) {
    const WingResult r = ReceiptWingDecompose(g, options);
    EXPECT_EQ(r.wing_numbers, warm.wing_numbers);
  }
  EXPECT_EQ(wing_footprint(), footprint_warm);
  EXPECT_EQ(pool.TotalGrowths(), growths_warm);
}

TEST(FindRangeBoundTest, EmptyInputAbsorbsEverything) {
  // Satellite requirement: findHi must not dereference .back() of an empty
  // vector; an empty input yields the unbounded range.
  std::vector<std::pair<Count, Count>> empty;
  EXPECT_EQ(engine::FindRangeBound(empty, 10.0), kInvalidCount);
}

TEST(FindRangeBoundTest, ReturnsExclusiveBoundAtTarget) {
  std::vector<std::pair<Count, Count>> sc = {{5, 10}, {1, 10}, {3, 10}};
  // Sorted by support: 1 (mass 10), 3 (20), 5 (30).
  EXPECT_EQ(engine::FindRangeBound(sc, 10.0), 2u);
  sc = {{5, 10}, {1, 10}, {3, 10}};
  EXPECT_EQ(engine::FindRangeBound(sc, 15.0), 4u);
  sc = {{5, 10}, {1, 10}, {3, 10}};
  // Mass below target: falls back to max support + 1.
  EXPECT_EQ(engine::FindRangeBound(sc, 1000.0), 6u);
}

TEST(GraphMaintenanceTest, RecountDisabledWithoutHuc) {
  const BipartiteGraph g = CompleteBipartite(6, 6);
  DynamicGraph live(g, g.DegreeDescendingRanks());
  engine::GraphMaintenance maintenance(live, /*use_huc=*/false,
                                       /*use_dgm=*/false, g.num_edges());
  const VertexId peeled = 0;
  live.Kill(peeled);
  EXPECT_FALSE(maintenance.ShouldRecount(kInvalidCount - 1, {&peeled, 1}));
  maintenance.OnPeelWedges(1u << 30);
  EXPECT_EQ(maintenance.compactions(), 0u);
}

TEST(GraphMaintenanceTest, DgmCompactsWhenBudgetExceeded) {
  const BipartiteGraph g = CompleteBipartite(6, 6);
  DynamicGraph live(g, g.DegreeDescendingRanks());
  engine::GraphMaintenance maintenance(live, /*use_huc=*/true,
                                       /*use_dgm=*/true,
                                       /*wedge_budget=*/100);
  maintenance.OnPeelWedges(100);  // exactly the budget: no trigger
  EXPECT_EQ(maintenance.compactions(), 0u);
  maintenance.OnPeelWedges(1);  // crosses it
  EXPECT_EQ(maintenance.compactions(), 1u);
  // Accumulator reset: the next wedge does not trigger again.
  maintenance.OnPeelWedges(1);
  EXPECT_EQ(maintenance.compactions(), 1u);
}

}  // namespace
}  // namespace receipt

#include "tip/parb.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "engine/bucket.h"
#include "engine/counting.h"
#include "engine/peel_engine.h"
#include "graph/dynamic_graph.h"
#include "util/timer.h"

namespace receipt {

TipResult ParbDecompose(const BipartiteGraph& graph,
                        const TipOptions& options) {
  const WallTimer total_timer;
  const BipartiteGraph swapped =
      options.side == Side::kV ? graph.SwappedCopy() : BipartiteGraph();
  const BipartiteGraph& g = options.side == Side::kV ? swapped : graph;
  const int num_threads = options.num_threads;

  TipResult result;
  result.tip_numbers.assign(g.num_u(), 0);

  DynamicGraph live(g, g.DegreeDescendingRanks());
  engine::WorkspacePool local_pool;
  engine::WorkspacePool& pool =
      engine::ResolvePool(options.workspace_pool, local_pool);
  pool.Prepare(std::max(1, num_threads), g.num_vertices());

  WallTimer count_timer;
  std::vector<Count> support(g.num_vertices(), 0);
  result.stats.wedges_counting =
      engine::CountVertexButterflies(live, pool.Team(num_threads), support);
  result.stats.seconds_counting = count_timer.Seconds();

  std::vector<VertexId> all_u(g.num_u());
  std::iota(all_u.begin(), all_u.end(), 0);
  BucketQueue queue(support, all_u, /*window=*/128);

  while (auto round = queue.PopMin()) {
    if (options.control != nullptr && options.control->Cancelled()) break;
    const auto& [theta, peel_set] = *round;
    ++result.stats.sync_rounds;
    ++result.stats.peel_iterations;

    // Delete the whole round's set first so concurrent updates never flow
    // between two vertices peeled in the same round (Lemma 2, case 3).
    for (const VertexId u : peel_set) {
      result.tip_numbers[u] = theta;
      live.Kill(u);
    }
    if (options.control != nullptr) {
      options.control->ReportPeeled(peel_set.size());
    }

    result.stats.wedges_other += engine::ParallelPeelRound(
        live, peel_set, theta, support, pool, num_threads,
        [](engine::PeelWorkspace& ws, VertexId u2, Count new_support) {
          ws.updates.emplace_back(u2, new_support);
        });

    // Re-bucket touched vertices (sequential; BucketQueue::Update dedups
    // repeated updates that landed on the same key).
    for (engine::PeelWorkspace& ws : pool.Team(num_threads)) {
      for (const auto& [vertex, ignored] : ws.updates) {
        const VertexId v = static_cast<VertexId>(vertex);
        if (live.IsAlive(v)) queue.Update(v, support[v]);
      }
      ws.updates.clear();
    }
  }

  result.stats.seconds_total = total_timer.Seconds();
  return result;
}

}  // namespace receipt

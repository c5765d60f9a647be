#include "tip/bup.h"

#include <algorithm>
#include <span>
#include <vector>

#include "engine/counting.h"
#include "engine/peel_engine.h"
#include "graph/dynamic_graph.h"
#include "util/timer.h"

namespace receipt {

TipResult BupDecompose(const BipartiteGraph& graph,
                       const TipOptions& options) {
  const WallTimer total_timer;
  const BipartiteGraph swapped =
      options.side == Side::kV ? graph.SwappedCopy() : BipartiteGraph();
  const BipartiteGraph& g = options.side == Side::kV ? swapped : graph;

  TipResult result;
  result.tip_numbers.assign(g.num_u(), 0);

  DynamicGraph live(g, g.DegreeDescendingRanks());
  engine::WorkspacePool local_pool;
  engine::WorkspacePool& pool =
      engine::ResolvePool(options.workspace_pool, local_pool);
  pool.Prepare(std::max(1, options.num_threads), g.num_vertices());

  // Initial support via pvBcnt (Alg. 2 line 1).
  WallTimer count_timer;
  std::vector<Count> support(g.num_vertices(), 0);
  result.stats.wedges_counting = engine::CountVertexButterflies(
      live, pool.Team(options.num_threads), support);
  result.stats.seconds_counting = count_timer.Seconds();

  // The sequential peel extracts through the workspace-resident
  // MinExtractor (engine/extraction.h), so repeated runs on a caller-owned
  // pool re-seed retained backing stores instead of allocating.
  engine::SequentialPeelConfig config;
  config.min_extraction = options.min_extraction;
  config.control = options.control;
  const engine::SequentialPeelOutcome outcome = engine::SequentialTipPeel(
      g, live, std::span<Count>(support), g.num_u(), config, pool.Get(0),
      [&result](VertexId u, Count theta) { result.tip_numbers[u] = theta; });
  result.stats.wedges_other = outcome.wedges;
  result.stats.peel_iterations = outcome.iterations;

  result.stats.seconds_total = total_timer.Seconds();
  return result;
}

}  // namespace receipt

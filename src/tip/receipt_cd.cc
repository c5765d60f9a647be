#include "tip/receipt_cd.h"

#include <algorithm>
#include <vector>

#include "engine/counting.h"
#include "engine/graph_maintenance.h"
#include "engine/peel_engine.h"
#include "graph/dynamic_graph.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace receipt {

CdResult ReceiptCd(const BipartiteGraph& graph, const TipOptions& options,
                   PeelStats* stats) {
  engine::WorkspacePool pool;
  return ReceiptCd(graph, options, pool, stats);
}

CdResult ReceiptCd(const BipartiteGraph& graph, const TipOptions& options,
                   engine::WorkspacePool& pool, PeelStats* stats) {
  const int num_threads = options.num_threads;
  const VertexId num_u = graph.num_u();
  const uint32_t max_partitions =
      static_cast<uint32_t>(std::max(1, options.num_partitions));

  DynamicGraph live(graph, graph.DegreeDescendingRanks());
  pool.Prepare(std::max(1, num_threads), graph.num_vertices());

  // Support initialization via pvBcnt (Alg. 3 line 2).
  const uint64_t count_start_ns = options.trace.enabled()
                                      ? obs::TraceRecorder::NowNs()
                                      : 0;
  WallTimer count_timer;
  std::vector<Count> support(graph.num_vertices(), 0);
  // CD and FD read U supports only (the engine peels U), so the count
  // credits U alone; BUP and ParB keep the both-sides kernel.
  stats->wedges_counting += engine::CountVertexButterflies(
      live, pool.Team(num_threads), support, engine::CountScope::kUOnly);
  stats->seconds_counting = count_timer.Seconds();
  options.trace.EmitSince("engine.count", count_start_ns,
                          stats->wedges_counting);

  const uint64_t cd_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  const WallTimer cd_timer;

  // Static per-vertex wedge counts w[u] — the workload proxy for range
  // determination and the C_peel cost model (§3.1, §4.1).
  std::vector<Count> wedge_static(num_u);
  ParallelFor(num_u, num_threads, [&](size_t u) {
    wedge_static[u] = graph.WedgeCount(static_cast<VertexId>(u));
  });

  engine::GraphMaintenance maintenance(live, options.use_huc,
                                       options.use_dgm, graph.num_edges(),
                                       num_threads);
  engine::TipPeelGraph peel_graph(live, support);
  engine::RangeDecomposer<engine::TipPeelGraph> decomposer(
      peel_graph, wedge_static,
      engine::MakeCoarseOptions(options, max_partitions), pool, &maintenance,
      options.control);
  CdResult cd = decomposer.Run(stats);

  stats->dgm_compactions += maintenance.compactions();
  stats->seconds_cd = cd_timer.Seconds();
  options.trace.EmitSince("engine.cd", cd_start_ns, cd.subsets.size());
  return cd;
}

}  // namespace receipt

#include "tip/receipt_fd.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "engine/peel_engine.h"
#include "graph/dynamic_graph.h"
#include "graph/induced_subgraph.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace receipt {
namespace {

/// Peels one subset to completion (the body of Alg. 4 lines 5-10), entirely
/// on one thread: builds the induced subgraph into the workspace's arena,
/// seeds supports from ⊲⊳init, and hands the loop to the engine's
/// sequential peeler. In steady state (arena warm from earlier partitions)
/// this performs no heap allocation.
void PeelSubset(const BipartiteGraph& graph, const CdResult& cd, uint32_t sid,
                const TipOptions& options, engine::PeelWorkspace& ws,
                std::span<Count> tip_numbers, PeelStats* local_stats) {
  const std::vector<VertexId>& members = cd.subsets[sid];
  if (members.empty()) return;

  // Induce G_i on (U_i, V) and re-sort by local degree priority (Alg. 4
  // line 5), rebuilding the arena-resident subgraph and DynamicGraph view
  // in place.
  InducedSubgraphArena& arena = ws.subgraph_arena;
  const InducedSubgraph& induced = BuildInducedSubgraph(graph, members, arena);
  const BipartiteGraph& sg = induced.graph;
  sg.DegreeDescendingRanksInto(arena.ranks, arena.rank_scratch);
  DynamicGraph& live = arena.live;
  live.Reset(sg, arena.ranks);
  const VertexId num_local = sg.num_u();

  // Support initialization from ⊲⊳init (Alg. 4 line 6).
  ws.support_buffer.assign(sg.num_vertices(), 0);
  for (VertexId lu = 0; lu < num_local; ++lu) {
    ws.support_buffer[lu] = cd.init_support[members[lu]];
  }

  engine::SequentialPeelConfig config;
  config.min_extraction = options.min_extraction;
  config.use_huc = options.use_huc;
  config.use_dgm = options.use_dgm;
  config.floor0 = cd.bounds[sid];  // tip numbers of this subset start here
  config.stop_when_peeled = true;
  config.control = options.control;
  const engine::SequentialPeelOutcome outcome = engine::SequentialTipPeel(
      sg, live, std::span<Count>(ws.support_buffer.data(), sg.num_vertices()),
      num_local, config, ws, [&](VertexId lu, Count theta) {
        tip_numbers[members[lu]] = theta;
      });
  local_stats->wedges_fd += outcome.wedges;
  local_stats->huc_recounts += outcome.huc_recounts;
  local_stats->dgm_compactions += outcome.dgm_compactions;
}

}  // namespace

std::vector<Count> ComputeSubsetWedgeCounts(const BipartiteGraph& graph,
                                            std::span<const uint32_t> subset_of,
                                            uint32_t num_subsets,
                                            int num_threads) {
  std::vector<Count> counts(num_subsets, 0);
  ParallelFor(graph.num_v(), num_threads, [&](size_t v_local) {
    const VertexId gv = graph.VGlobal(static_cast<VertexId>(v_local));
    const auto nbrs = graph.Neighbors(gv);
    std::vector<uint32_t> ids;
    ids.reserve(nbrs.size());
    for (const VertexId u : nbrs) ids.push_back(subset_of[u]);
    std::sort(ids.begin(), ids.end());
    size_t i = 0;
    while (i < ids.size()) {
      size_t j = i;
      while (j < ids.size() && ids[j] == ids[i]) ++j;
      const Count run = static_cast<Count>(j - i);
      if (run >= 2) AtomicAdd(&counts[ids[i]], Choose2(run));
      i = j;
    }
  });
  return counts;
}

void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, std::span<Count> tip_numbers,
               PeelStats* stats) {
  engine::WorkspacePool pool;
  ReceiptFd(graph, cd, options, pool, tip_numbers, stats);
}

std::vector<uint32_t> FdPopOrder(std::span<const Count> costs,
                                 FdOrder order) {
  std::vector<uint32_t> pop_order(costs.size());
  std::iota(pop_order.begin(), pop_order.end(), 0u);
  if (order == FdOrder::kCostDescending) {
    std::sort(pop_order.begin(), pop_order.end(),
              [&costs](uint32_t a, uint32_t b) {
                if (costs[a] != costs[b]) return costs[a] > costs[b];
                return a < b;
              });
  }
  return pop_order;
}

void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, engine::WorkspacePool& pool,
               std::span<Count> tip_numbers, PeelStats* stats) {
  const WallTimer fd_timer;
  const uint64_t fd_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  const uint32_t num_subsets = static_cast<uint32_t>(cd.subsets.size());
  if (num_subsets == 0) return;
  const int num_threads = std::max(1, options.num_threads);
  pool.Prepare(num_threads, graph.num_vertices());

  // Per-partition cost prediction: the coarse histogram's range prediction
  // rides along in cd.predicted_costs.
  assert(cd.predicted_costs.size() == num_subsets);
  const std::vector<uint32_t> order =
      FdPopOrder(cd.predicted_costs, options.fd_order);

  engine::RunFineTasks(
      num_subsets, num_threads, pool, options.control, stats,
      [&](uint32_t k, engine::PeelWorkspace& ws, PeelStats* local) {
        PeelSubset(graph, cd, order[k], options, ws, tip_numbers, local);
      });
  stats->seconds_fd = fd_timer.Seconds();
  options.trace.EmitSince("engine.fd", fd_start_ns, num_subsets);
}

}  // namespace receipt

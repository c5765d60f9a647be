#include "tip/receipt_fd.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "engine/cost_model.h"
#include "engine/peel_engine.h"
#include "engine/topology.h"
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

void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, engine::WorkspacePool& pool,
               std::span<Count> tip_numbers, PeelStats* stats) {
  ReceiptFd(graph, cd, options, pool, tip_numbers, stats, {});
}

void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, engine::WorkspacePool& pool,
               std::span<Count> tip_numbers, PeelStats* stats,
               std::span<const uint8_t> only_subsets) {
  const WallTimer fd_timer;
  const uint64_t fd_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  const uint32_t num_subsets = static_cast<uint32_t>(cd.subsets.size());
  if (num_subsets == 0) return;
  const int num_threads = std::max(1, options.num_threads);
  pool.Prepare(num_threads, graph.num_vertices());

  // Per-partition cost prediction: the coarse histogram's range prediction
  // rides along in cd.predicted_costs; legacy callers without it fall back
  // to the O(m) induced wedge-count pass (§3.2.1's original proxy).
  const std::vector<Count> costs =
      cd.predicted_costs.size() == num_subsets
          ? cd.predicted_costs
          : ComputeSubsetWedgeCounts(graph, cd.subset_of, num_subsets,
                                     options.num_threads);

  // Node layout: forced virtual nodes (benches/tests), else the machine's.
  const engine::NumaTopology* topology = nullptr;
  int num_nodes = 1;
  if (options.placement_nodes > 0) {
    num_nodes = options.placement_nodes;
  } else {
    topology = &engine::SystemTopology();
    num_nodes = topology->num_nodes();
  }
  num_nodes = std::max(1, num_nodes);

  // Place partitions onto nodes (§3.2.1's LPT rule lifted from a sort
  // order to a node assignment). Deterministic: a pure function of the
  // predicted costs and the node count.
  const engine::PlacementPlan plan =
      options.fd_assignment == engine::PlacementAssign::kCostLpt
          ? engine::AssignLpt(costs, static_cast<uint32_t>(num_nodes))
          : engine::AssignRoundRobin(costs, static_cast<uint32_t>(num_nodes));
  stats->placement_nodes =
      std::max(stats->placement_nodes, static_cast<uint64_t>(num_nodes));
  stats->makespan_predicted =
      std::max(stats->makespan_predicted, plan.Makespan());

  // Workers spread across nodes proportional to CPU counts on a real
  // topology, round-robin over virtual nodes otherwise.
  std::vector<int> node_of_thread;
  if (topology != nullptr && topology->num_nodes() == num_nodes) {
    node_of_thread = topology->AssignWorkers(num_threads);
  }
  if (static_cast<int>(node_of_thread.size()) != num_threads) {
    node_of_thread.resize(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) node_of_thread[t] = t % num_nodes;
  }
  const bool pin = options.pin_numa && topology != nullptr &&
                   !topology->synthetic() && topology->num_nodes() > 1;

  // Per-node pop cursors over the plan's queues, plus the measured work
  // units each *assigned* node accumulated — attribution follows the plan,
  // not the executing thread, so makespan_measured is schedule-independent
  // even with stealing.
  std::unique_ptr<std::atomic<uint32_t>[]> cursors(
      new std::atomic<uint32_t>[static_cast<size_t>(num_nodes)]);
  std::unique_ptr<std::atomic<uint64_t>[]> node_work(
      new std::atomic<uint64_t>[static_cast<size_t>(num_nodes)]);
  for (int b = 0; b < num_nodes; ++b) {
    cursors[b].store(0, std::memory_order_relaxed);
    node_work[b].store(0, std::memory_order_relaxed);
  }

  // Dynamic task allocation (Alg. 4 lines 2-4), locality-aware: each
  // thread drains its home node's queue, then steals from the other nodes
  // in ring order. Threads only synchronize at the terminal join.
  std::vector<PeelStats> local_stats(static_cast<size_t>(num_threads));
#pragma omp parallel num_threads(options.num_threads)
  {
    const int tid = ThreadId();
    PeelStats& local = local_stats[static_cast<size_t>(tid)];
    engine::PeelWorkspace& ws = pool.Get(tid);
    const int home = node_of_thread[static_cast<size_t>(tid) %
                                    node_of_thread.size()];
    // Pin for the duration of this region only; the OpenMP pool thread's
    // original mask is restored at scope exit.
    std::optional<engine::ScopedAffinity> saved_affinity;
    if (pin) {
      saved_affinity.emplace();
      engine::PinThreadToNode(*topology, home);
    }
    while (true) {
      if (options.control != nullptr && options.control->Cancelled()) break;
      int source = -1;
      uint32_t sid = 0;
      for (int k = 0; k < num_nodes; ++k) {
        const int node = (home + k) % num_nodes;
        const uint32_t pos =
            cursors[node].fetch_add(1, std::memory_order_relaxed);
        if (pos < plan.bin_items[static_cast<size_t>(node)].size()) {
          source = node;
          sid = plan.bin_items[static_cast<size_t>(node)][pos];
          break;
        }
      }
      if (source < 0) break;
      // Selective FD (incremental serving): unselected subsets keep their
      // sealed numbers; popping and skipping keeps the plan cursors shared.
      if (!only_subsets.empty() &&
          (sid >= only_subsets.size() || only_subsets[sid] == 0)) {
        continue;
      }
      if (source == home) {
        ++local.placement_local_pops;
      } else {
        ++local.placement_remote_steals;
      }
      const uint64_t wedges_before = local.wedges_fd;
      PeelSubset(graph, cd, sid, options, ws, tip_numbers, &local);
      node_work[plan.bin_of[sid]].fetch_add(local.wedges_fd - wedges_before,
                                            std::memory_order_relaxed);
    }
  }
  for (const PeelStats& local : local_stats) {
    stats->wedges_fd += local.wedges_fd;
    stats->huc_recounts += local.huc_recounts;
    stats->dgm_compactions += local.dgm_compactions;
    stats->placement_local_pops += local.placement_local_pops;
    stats->placement_remote_steals += local.placement_remote_steals;
  }
  uint64_t measured = 0;
  for (int b = 0; b < num_nodes; ++b) {
    measured = std::max(measured, node_work[b].load(std::memory_order_relaxed));
  }
  stats->makespan_measured = std::max(stats->makespan_measured, measured);
  stats->seconds_fd = fd_timer.Seconds();
  options.trace.EmitSince("engine.fd", fd_start_ns, num_subsets);
}

}  // namespace receipt

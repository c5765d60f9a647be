#include "wing/receipt_wing.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "engine/counting.h"
#include "engine/min_heap.h"
#include "engine/peel_engine.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "wing/edge_topology.h"

namespace receipt {
namespace {

using CoarseWingResult = engine::RangeResult<EdgeOffset>;

/// Coarse-grained edge decomposition: the engine's range decomposer
/// instantiated for edges, with the §7 priority rule for same-round
/// butterfly conflicts handled inside the edge peel kernel.
CoarseWingResult CoarseWingDecompose(EdgeTopology& topo,
                                     const ReceiptWingOptions& options,
                                     std::vector<Count>& support,
                                     engine::WorkspacePool& pool,
                                     PeelStats* stats) {
  const uint64_t num_edges = topo.num_edges();
  const int num_threads = options.num_threads;
  const uint32_t max_partitions =
      static_cast<uint32_t>(std::max(1, options.num_partitions));

  // Static peel-cost proxy for edge (u, v): the V-side walk, marking N(u)
  // plus scanning the neighborhoods of N(v), d(u) + walk[v]. The kernel
  // walks whichever side is cheaper over runs that only shrink, so this is
  // an upper bound on its work. Range bounds, subsets and ⊲⊳init are cut
  // by this proxy.
  std::vector<Count> cost_static(num_edges);
  ParallelFor(num_edges, num_threads, [&](size_t e) {
    cost_static[e] = topo.Degree(topo.source[e]) + topo.walk[topo.target[e]];
  });

  std::vector<uint8_t> state(num_edges, engine::kEdgeAlive);
  engine::WingPeelGraph peel_graph(topo, state, support, num_threads);
  engine::RangeDecomposer<engine::WingPeelGraph> decomposer(
      peel_graph, cost_static,
      engine::MakeCoarseOptions(options, max_partitions), pool,
      /*maintenance=*/nullptr, options.control);
  return decomposer.Run(stats);
}

/// Fine-grained step for one edge subset: sequential bottom-up edge peeling
/// against the environment of all equal-or-higher subsets. Every
/// per-partition structure (environment runs, states, heap) lives in the
/// workspace and is rebuilt in place, so steady-state FD tasks allocate
/// nothing.
void FineWingSubset(const EdgeTopology& topo, const CoarseWingResult& coarse,
                    uint32_t sid, engine::PeelWorkspace& ws,
                    std::span<Count> wing_numbers,
                    engine::PeelControl* control, PeelStats* local_stats) {
  if (coarse.subsets[sid].empty()) return;

  // Environment: edges of subsets ≥ sid, with local ids in global-id order
  // (env_ids maps them back).
  std::vector<EdgeOffset>& env_ids = ws.id_buffer;
  EdgeTopology& env = ws.env_runs;
  BuildEnvironmentInto(topo, coarse.subset_of, sid, env, env_ids);
  const uint64_t env_size = env.num_edges();

  std::vector<uint8_t>& state = ws.state_buffer;
  std::vector<uint8_t>& in_subset = ws.flag_buffer;
  state.assign(env_size, engine::kEdgeAlive);
  in_subset.assign(env_size, 0);
  ws.support_buffer.assign(env_size, 0);
  engine::LazyMinHeap<4>& heap = ws.edge_heap;
  heap.Clear();
  uint64_t remaining = 0;
  for (uint64_t k = 0; k < env_size; ++k) {
    const EdgeOffset global = env_ids[k];
    ws.support_buffer[k] = coarse.init_support[global];
    if (coarse.subset_of[global] == sid) {
      in_subset[k] = 1;
      heap.Push(ws.support_buffer[k], static_cast<VertexId>(k));
      ++remaining;
    }
  }

  const engine::WingPeelOutcome outcome = engine::SequentialWingPeel(
      env, state, std::span<Count>(ws.support_buffer.data(), env_size), heap,
      remaining, /*floor0=*/coarse.bounds[sid], ws,
      [&in_subset](EdgeOffset x) { return in_subset[x] != 0; },
      [&](EdgeOffset k, Count theta) { wing_numbers[env_ids[k]] = theta; },
      control);
  local_stats->wedges_fd += outcome.wedges;
}

}  // namespace

engine::RangeResult<EdgeOffset> ReceiptWingCoarse(
    const BipartiteGraph& graph, const ReceiptWingOptions& options,
    PeelStats* stats) {
  const uint64_t num_edges = graph.num_edges();
  CoarseWingResult coarse;
  coarse.bounds = {0};
  if (num_edges == 0) return coarse;

  EdgeTopology topo = BuildEdgeTopology(graph);
  engine::WorkspacePool local_pool;
  engine::WorkspacePool& pool =
      engine::ResolvePool(options.workspace_pool, local_pool);
  pool.Prepare(std::max(1, options.num_threads), graph.num_vertices(),
               graph.num_vertices());

  const uint64_t count_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  WallTimer count_timer;
  std::vector<Count> support(num_edges, 0);
  stats->wedges_counting +=
      engine::CountEdgeButterflies(topo, pool, options.num_threads, support);
  stats->seconds_counting += count_timer.Seconds();
  options.trace.EmitSince("engine.count", count_start_ns,
                          stats->wedges_counting);

  const uint64_t cd_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  const WallTimer cd_timer;
  coarse = CoarseWingDecompose(topo, options, support, pool, stats);
  stats->seconds_cd += cd_timer.Seconds();
  options.trace.EmitSince("engine.cd", cd_start_ns, coarse.subsets.size());
  return coarse;
}

void ReceiptWingFine(const BipartiteGraph& graph,
                     const engine::RangeResult<EdgeOffset>& coarse,
                     const ReceiptWingOptions& options,
                     std::span<Count> wing_numbers, PeelStats* stats,
                     std::span<const uint8_t> only_subsets) {
  engine::WorkspacePool local_pool;
  engine::WorkspacePool& pool =
      engine::ResolvePool(options.workspace_pool, local_pool);
  const int num_threads = std::max(1, options.num_threads);
  pool.Prepare(num_threads, /*vertex_capacity=*/0, graph.num_vertices());

  const WallTimer fd_timer;
  const uint64_t fd_start_ns =
      options.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  // Every environment is cut from the whole graph's runs.
  const EdgeTopology topo = BuildEdgeTopology(graph);
  const uint32_t num_subsets = static_cast<uint32_t>(coarse.subsets.size());
  // Workload-aware order: big subsets first (cost ≈ member count here).
  std::vector<uint32_t> order(num_subsets);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return coarse.subsets[a].size() > coarse.subsets[b].size();
  });
  engine::RunFineTasks(
      num_subsets, num_threads, pool, options.control, stats,
      [&](uint32_t k, engine::PeelWorkspace& ws, PeelStats* local) {
        const uint32_t sid = order[k];
        // Unselected subsets keep whatever wing_numbers already holds.
        if (!only_subsets.empty() &&
            (sid >= only_subsets.size() || only_subsets[sid] == 0)) {
          return;
        }
        FineWingSubset(topo, coarse, sid, ws, wing_numbers, options.control,
                       local);
      });
  stats->seconds_fd += fd_timer.Seconds();
  options.trace.EmitSince("engine.fd", fd_start_ns, num_subsets);
}

WingResult ReceiptWingDecompose(const BipartiteGraph& graph,
                                const ReceiptWingOptions& options) {
  const WallTimer total_timer;
  WingResult result;
  const uint64_t num_edges = graph.num_edges();
  result.wing_numbers.assign(num_edges, 0);
  if (num_edges == 0) {
    result.stats.seconds_total = total_timer.Seconds();
    return result;
  }

  engine::WorkspacePool local_pool;
  engine::WorkspacePool& pool =
      engine::ResolvePool(options.workspace_pool, local_pool);

  // One coarse preamble implementation: route through the public coarse
  // entry point, pinning the resolved pool so the fine step below peels on
  // the same warm workspaces.
  ReceiptWingOptions coarse_options = options;
  coarse_options.workspace_pool = &pool;
  const CoarseWingResult coarse =
      ReceiptWingCoarse(graph, coarse_options, &result.stats);

  ReceiptWingFine(graph, coarse, coarse_options,
                  std::span<Count>(result.wing_numbers), &result.stats, {});
  result.stats.seconds_total = total_timer.Seconds();
  return result;
}

}  // namespace receipt

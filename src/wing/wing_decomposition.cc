#include "wing/wing_decomposition.h"

#include <algorithm>
#include <utility>

#include "engine/counting.h"
#include "engine/min_heap.h"
#include "engine/peel_engine.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "wing/edge_topology.h"

namespace receipt {

VertexId EdgeSourceU(const BipartiteGraph& graph, EdgeOffset edge_id) {
  const auto offsets = graph.offsets();
  const auto it = std::upper_bound(offsets.begin(),
                                   offsets.begin() + graph.num_u() + 1,
                                   edge_id);
  return static_cast<VertexId>(it - offsets.begin()) - 1;
}

std::vector<Count> PerEdgeButterflyCount(const BipartiteGraph& graph,
                                         int num_threads,
                                         uint64_t* wedges_traversed) {
  // Convenience entry point with a transient workspace pool. Decomposition
  // hot paths call engine::CountEdgeButterflies with their own pool.
  std::vector<Count> support(graph.num_edges(), 0);
  engine::WorkspacePool pool;
  const uint64_t wedges = engine::CountEdgeButterflies(
      BuildEdgeTopology(graph), pool, num_threads, support);
  if (wedges_traversed != nullptr) *wedges_traversed += wedges;
  return support;
}

std::vector<Count> BruteForcePerEdgeCount(const BipartiteGraph& graph) {
  std::vector<Count> support(graph.num_edges(), 0);
  const auto edge_id = [&graph](VertexId u, VertexId gv) -> EdgeOffset {
    const auto nbrs = graph.Neighbors(u);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), gv);
    return graph.NeighborOffset(u) +
           static_cast<EdgeOffset>(it - nbrs.begin());
  };
  for (VertexId u1 = 0; u1 < graph.num_u(); ++u1) {
    for (VertexId u2 = u1 + 1; u2 < graph.num_u(); ++u2) {
      const auto n1 = graph.Neighbors(u1);
      const auto n2 = graph.Neighbors(u2);
      std::vector<VertexId> common;
      std::set_intersection(n1.begin(), n1.end(), n2.begin(), n2.end(),
                            std::back_inserter(common));
      for (size_t i = 0; i < common.size(); ++i) {
        for (size_t j = i + 1; j < common.size(); ++j) {
          for (const VertexId u : {u1, u2}) {
            ++support[edge_id(u, common[i])];
            ++support[edge_id(u, common[j])];
          }
        }
      }
    }
  }
  return support;
}

WingResult WingDecompose(const BipartiteGraph& graph, int num_threads,
                         engine::WorkspacePool* workspace_pool,
                         engine::PeelControl* control,
                         obs::TraceContext trace) {
  const WallTimer total_timer;
  WingResult result;
  const uint64_t m = graph.num_edges();
  result.wing_numbers.assign(m, 0);
  if (m == 0) {
    result.stats.seconds_total = total_timer.Seconds();
    return result;
  }

  engine::WorkspacePool local_pool;
  engine::WorkspacePool& pool = engine::ResolvePool(workspace_pool, local_pool);
  pool.Prepare(std::max(1, num_threads), graph.num_vertices(),
               graph.num_vertices());

  const uint64_t count_start_ns =
      trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  WallTimer count_timer;
  EdgeTopology topo = BuildEdgeTopology(graph);
  std::vector<Count> support(m, 0);
  result.stats.wedges_counting =
      engine::CountEdgeButterflies(topo, pool, num_threads, support);
  result.stats.seconds_counting = count_timer.Seconds();
  trace.EmitSince("engine.count", count_start_ns,
                  result.stats.wedges_counting);

  const uint64_t peel_start_ns =
      trace.enabled() ? obs::TraceRecorder::NowNs() : 0;
  std::vector<uint8_t> state(m, engine::kEdgeAlive);
  // Workspace-resident heap: Clear() keeps the backing store, so repeated
  // decompositions on a caller-owned pool are allocation-free once warm.
  engine::LazyMinHeap<4>& heap = pool.Get(0).edge_heap;
  heap.Clear();
  heap.Reserve(m);
  // Edge ids fit the heap's 32 bits: BuildEdgeTopology checked m.
  for (EdgeOffset e = 0; e < m; ++e) {
    heap.Push(support[e], static_cast<VertexId>(e));
  }

  const engine::WingPeelOutcome outcome = engine::SequentialWingPeel(
      topo, state, support, heap, /*remaining=*/m, /*floor0=*/0,
      pool.Get(0), [](EdgeOffset) { return true; },
      [&result](EdgeOffset e, Count theta) {
        result.wing_numbers[e] = theta;
      },
      control);
  result.stats.wedges_other = outcome.wedges;
  result.stats.peel_iterations = outcome.iterations;
  trace.EmitSince("engine.peel", peel_start_ns, outcome.iterations);

  result.stats.seconds_total = total_timer.Seconds();
  return result;
}

}  // namespace receipt

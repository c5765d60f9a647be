#include "butterfly/butterfly_count.h"

#include <algorithm>
#include <map>
#include <utility>

#include "engine/counting.h"
#include "engine/workspace.h"
#include "util/parallel.h"

namespace receipt {

void PerVertexButterflyCount(const DynamicGraph& graph, int num_threads,
                             std::span<Count> support,
                             uint64_t* wedges_traversed) {
  // Convenience entry point with a transient workspace pool. Decomposition
  // hot paths call engine::CountVertexButterflies with their own pool.
  engine::WorkspacePool pool;
  const uint64_t wedges =
      engine::CountVertexButterflies(graph, pool.Team(num_threads), support);
  if (wedges_traversed != nullptr) *wedges_traversed += wedges;
}

std::vector<Count> CountButterflies(const BipartiteGraph& graph,
                                    int num_threads,
                                    uint64_t* wedges_traversed) {
  const DynamicGraph view(graph, graph.DegreeDescendingRanks());
  std::vector<Count> support(graph.num_vertices(), 0);
  PerVertexButterflyCount(view, num_threads, support, wedges_traversed);
  return support;
}

Count TotalButterflies(const BipartiteGraph& graph, int num_threads) {
  const std::vector<Count> support = CountButterflies(graph, num_threads);
  Count total = 0;
  for (VertexId u = 0; u < graph.num_u(); ++u) total += support[u];
  return total / 2;
}

std::vector<Count> BruteForceButterflyCount(const BipartiteGraph& graph) {
  std::vector<Count> support(graph.num_vertices(), 0);
  // For each side, count common-neighbor pairs per same-side vertex pair.
  for (const Side side : {Side::kU, Side::kV}) {
    std::map<std::pair<VertexId, VertexId>, Count> pair_wedges;
    const VertexId mid_begin = graph.SideBegin(side == Side::kU ? Side::kV
                                                                : Side::kU);
    const VertexId mid_end = graph.SideEnd(side == Side::kU ? Side::kV
                                                            : Side::kU);
    for (VertexId mid = mid_begin; mid < mid_end; ++mid) {
      const auto nbrs = graph.Neighbors(mid);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        for (size_t j = i + 1; j < nbrs.size(); ++j) {
          ++pair_wedges[{nbrs[i], nbrs[j]}];
        }
      }
    }
    for (const auto& [pair, wedge_count] : pair_wedges) {
      const Count bcnt = Choose2(wedge_count);
      support[pair.first] += bcnt;
      support[pair.second] += bcnt;
    }
  }
  return support;
}

Count SharedButterflies(const BipartiteGraph& graph, VertexId a, VertexId b) {
  const auto na = graph.Neighbors(a);
  const auto nb = graph.Neighbors(b);
  std::vector<VertexId> common;
  std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                        std::back_inserter(common));
  return Choose2(common.size());
}

}  // namespace receipt

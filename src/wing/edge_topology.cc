#include "wing/edge_topology.h"

#include <cstdio>
#include <cstdlib>

namespace receipt {
namespace {

/// Lays out the runs of `topo` from its filled source/target arrays, which
/// must be in (u, v) order: counts degrees, cuts the runs, and appends each
/// edge to both of its ends' runs in id order, which leaves every run in
/// CSR order. Then sums the walks. O(n + m).
void LayOutRuns(EdgeTopology& topo, VertexId num_vertices) {
  const uint64_t m = topo.num_edges();
  topo.live.assign(num_vertices, 0);
  for (uint64_t k = 0; k < m; ++k) {
    ++topo.live[topo.source[k]];
    ++topo.live[topo.target[k]];
  }
  topo.begin.resize(static_cast<size_t>(num_vertices) + 1);
  topo.begin[0] = 0;
  for (VertexId w = 0; w < num_vertices; ++w) {
    topo.begin[w + 1] = topo.begin[w] + topo.live[w];
    topo.live[w] = 0;  // now the fill cursor
  }
  topo.entries.resize(topo.begin[num_vertices]);
  for (uint64_t k = 0; k < m; ++k) {
    const VertexId u = topo.source[k];
    const VertexId gv = topo.target[k];
    const uint32_t id = static_cast<uint32_t>(k);
    topo.entries[topo.begin[u] + topo.live[u]++] = {gv, id};
    topo.entries[topo.begin[gv] + topo.live[gv]++] = {u, id};
  }
  topo.walk.assign(num_vertices, 0);
  for (uint64_t k = 0; k < m; ++k) {
    const VertexId u = topo.source[k];
    const VertexId gv = topo.target[k];
    topo.walk[u] += topo.Degree(gv);
    topo.walk[gv] += topo.Degree(u);
  }
}

}  // namespace

void CheckWingEdgeCount(uint64_t num_edges, const char* caller) {
  if (num_edges > kMaxWingEdges) {
    std::fprintf(stderr,
                 "%s: the graph has %llu edges; wing decomposition addresses "
                 "edges by 32-bit ids and supports at most %llu\n",
                 caller, static_cast<unsigned long long>(num_edges),
                 static_cast<unsigned long long>(kMaxWingEdges));
    std::abort();
  }
}

void EdgeTopology::RemoveEdge(EdgeOffset k) {
  const auto is_k = [k](uint32_t edge) { return edge == k; };
  CompactRun(source[k], is_k);
  CompactRun(target[k], is_k);
}

size_t EdgeTopology::CapacityFootprint() const {
  return source.capacity() * sizeof(VertexId) +
         target.capacity() * sizeof(VertexId) +
         begin.capacity() * sizeof(EdgeOffset) +
         live.capacity() * sizeof(VertexId) +
         entries.capacity() * sizeof(Entry) + walk.capacity() * sizeof(Count);
}

EdgeTopology BuildEdgeTopology(const BipartiteGraph& graph) {
  const uint64_t m = graph.num_edges();
  CheckWingEdgeCount(m, "BuildEdgeTopology");
  EdgeTopology topo;
  topo.num_u = graph.num_u();
  topo.source.resize(m);
  topo.target.assign(graph.adjacency().begin(),
                     graph.adjacency().begin() + static_cast<ptrdiff_t>(m));
  for (VertexId u = 0; u < graph.num_u(); ++u) {
    const EdgeOffset base = graph.NeighborOffset(u);
    std::fill_n(topo.source.begin() + static_cast<ptrdiff_t>(base),
                graph.Degree(u), u);
  }
  LayOutRuns(topo, graph.num_vertices());
  return topo;
}

void BuildEnvironmentInto(const EdgeTopology& parent,
                          std::span<const uint32_t> subset_of,
                          uint32_t min_subset, EdgeTopology& env,
                          std::vector<EdgeOffset>& env_ids) {
  env.num_u = parent.num_u;
  env.source.clear();
  env.target.clear();
  env_ids.clear();
  // U runs hold each U vertex's edges in ascending id, so visiting them in
  // vertex order lists the kept edges in parent id order.
  for (VertexId u = 0; u < parent.num_u; ++u) {
    for (const EdgeTopology::Entry& entry : parent.Run(u)) {
      if (subset_of[entry.edge] < min_subset) continue;
      env_ids.push_back(entry.edge);
      env.source.push_back(u);
      env.target.push_back(entry.nbr);
    }
  }
  LayOutRuns(env, parent.num_vertices());
}

}  // namespace receipt

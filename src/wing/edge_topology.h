#ifndef RECEIPT_WING_EDGE_TOPOLOGY_H_
#define RECEIPT_WING_EDGE_TOPOLOGY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt {

/// Wing algorithms address edges by 32-bit ids, so a graph must have fewer
/// than 2^32 edges.
inline constexpr uint64_t kMaxWingEdges = (uint64_t{1} << 32) - 1;

/// Aborts with a message naming `caller` when `num_edges` exceeds
/// kMaxWingEdges: the wing heaps and adjacency runs would silently
/// truncate the ids of such a graph.
void CheckWingEdgeCount(uint64_t num_edges, const char* caller);

/// The edge-addressed live adjacency every wing (edge-peeling) algorithm
/// walks: counting, RECEIPT-W's coarse rounds and fine tasks, and WING-BUP.
///
/// Edge k ∈ [0, m) joins U vertex source[k] and V vertex target[k] (global
/// id); ids follow (u, v) order, so for a whole graph edge k is the k-th
/// slot of its U-side CSR region. Each global vertex w owns a run of
/// (neighbour, edge id) entries, built in CSR order and kept free of dead
/// edges: the peel loops remove an edge from both of its runs once it is
/// dead, and later walks never meet it. Removal keeps the order of the rest.
struct EdgeTopology {
  /// One live adjacency entry: the neighbour and the id of the edge to it.
  struct Entry {
    VertexId nbr;
    uint32_t edge;
  };

  VertexId num_u = 0;
  /// edge id -> U end.
  std::vector<VertexId> source;
  /// edge id -> V end (global id).
  std::vector<VertexId> target;
  /// Vertex w's run starts at entries[begin[w]] and reserves
  /// begin[w + 1] − begin[w] slots, its degree when built; the first
  /// live[w] of them are its live entries.
  std::vector<EdgeOffset> begin;
  std::vector<VertexId> live;
  std::vector<Entry> entries;
  /// Per vertex w, Σ_{x∈N(w)} d(x) when built: the length of the 2-hop
  /// walk out of w. The wing peel kernel compares the two ends of an edge
  /// by it.
  std::vector<Count> walk;

  uint64_t num_edges() const { return source.size(); }
  VertexId num_vertices() const { return static_cast<VertexId>(live.size()); }
  /// Degree of w when the runs were built.
  VertexId Degree(VertexId w) const {
    return static_cast<VertexId>(begin[w + 1] - begin[w]);
  }
  /// The live entries of w, in CSR order.
  std::span<const Entry> Run(VertexId w) const {
    return {entries.data() + begin[w], live[w]};
  }

  /// Drops from w's run every entry whose edge `dead(edge)` names,
  /// keeping the order of the rest.
  template <typename Dead>
  void CompactRun(VertexId w, Dead&& dead) {
    Entry* const first = entries.data() + begin[w];
    Entry* const last = std::remove_if(
        first, first + live[w],
        [&dead](const Entry& entry) { return dead(entry.edge); });
    live[w] = static_cast<VertexId>(last - first);
  }

  /// Removes edge k from the runs of both of its ends.
  void RemoveEdge(EdgeOffset k);

  /// Bytes reserved by the arrays (allocation telemetry for the
  /// workspace-reuse tests).
  size_t CapacityFootprint() const;
};

/// Builds the runs of `graph`: edge k is its k-th U-side CSR slot. O(n + m).
EdgeTopology BuildEdgeTopology(const BipartiteGraph& graph);

/// Rebuilds `env` in place as the environment of one RECEIPT-W fine task:
/// the edges k of `parent` with subset_of[k] ≥ min_subset, in one pass over
/// the parent's U runs. Environment edge j is parent edge env_ids[j]; local
/// ids follow the parent's id order, so env's runs are in CSR order too.
/// Reuses the capacity of `env` and `env_ids`.
void BuildEnvironmentInto(const EdgeTopology& parent,
                          std::span<const uint32_t> subset_of,
                          uint32_t min_subset, EdgeTopology& env,
                          std::vector<EdgeOffset>& env_ids);

}  // namespace receipt

#endif  // RECEIPT_WING_EDGE_TOPOLOGY_H_

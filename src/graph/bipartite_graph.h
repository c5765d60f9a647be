#ifndef RECEIPT_GRAPH_BIPARTITE_GRAPH_H_
#define RECEIPT_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/types.h"

namespace receipt {

/// An undirected bipartite graph G(W = (U, V), E) in compressed sparse row
/// form over the combined vertex space W.
///
/// U vertices occupy ids [0, num_u()), V vertices occupy ids
/// [num_u(), num_u() + num_v()). Every edge (u, v) is stored twice: once in
/// u's adjacency list and once in v's. Adjacency lists are sorted in
/// ascending id order. Peeling and counting need them in vertex-priority
/// order instead (DegreeDescendingRanks()); DynamicGraph re-lays them out
/// that way.
///
/// Every builder here runs in O(n + m): AssignFromEdges() sorts by two
/// counting passes, SwappedCopy() is a block transpose and
/// DegreeDescendingRanks() a counting sort on degree.
///
/// The class is immutable after construction; peeling algorithms layer
/// mutable degree/alive state on top via DynamicGraph.
class BipartiteGraph {
 public:
  /// An edge as a (u, v) pair in *side-local* coordinates: u ∈ [0, num_u),
  /// v ∈ [0, num_v). Used by builders and generators.
  struct Edge {
    VertexId u;
    VertexId v;
    friend bool operator==(const Edge&, const Edge&) = default;
    friend auto operator<=>(const Edge&, const Edge&) = default;
  };

  BipartiteGraph() = default;

  /// Builds a graph from an edge list. Duplicate edges are removed. Edges
  /// must satisfy u < num_u and v < num_v; violating edges abort the build
  /// (programming error).
  static BipartiteGraph FromEdges(VertexId num_u, VertexId num_v,
                                  std::vector<Edge> edges);

  /// In-place FromEdges: rebuilds *this* graph from `edges`, reusing the
  /// CSR arrays' capacity — the allocation-free path for arena-resident
  /// induced subgraphs and environment graphs rebuilt once per partition.
  /// On return `edges` holds the deduplicated edge list in (u, v) order,
  /// the same as std::sort + std::unique would leave it (caller scratch).
  /// O(n + m); the sort's cursors and intermediate live in the CSR arrays.
  void AssignFromEdges(VertexId num_u, VertexId num_v,
                       std::vector<Edge>& edges);

  // -- sizes ---------------------------------------------------------------
  VertexId num_u() const { return num_u_; }
  VertexId num_v() const { return num_v_; }
  VertexId num_vertices() const { return num_u_ + num_v_; }
  /// Number of undirected edges |E|.
  uint64_t num_edges() const { return adjacency_.size() / 2; }

  // -- id helpers ----------------------------------------------------------
  /// True if combined id `w` lies on the U side.
  bool IsU(VertexId w) const { return w < num_u_; }
  /// Combined id of the i-th V vertex.
  VertexId VGlobal(VertexId v_local) const { return num_u_ + v_local; }
  /// Side-local index of a combined id.
  VertexId Local(VertexId w) const { return IsU(w) ? w : w - num_u_; }
  /// First and one-past-last combined id of a side.
  VertexId SideBegin(Side side) const { return side == Side::kU ? 0 : num_u_; }
  VertexId SideEnd(Side side) const {
    return side == Side::kU ? num_u_ : num_vertices();
  }
  VertexId SideSize(Side side) const {
    return side == Side::kU ? num_u_ : num_v_;
  }

  // -- topology ------------------------------------------------------------
  uint64_t Degree(VertexId w) const { return offsets_[w + 1] - offsets_[w]; }
  std::span<const VertexId> Neighbors(VertexId w) const {
    return {adjacency_.data() + offsets_[w],
            adjacency_.data() + offsets_[w + 1]};
  }
  std::span<const EdgeOffset> offsets() const { return offsets_; }
  std::span<const VertexId> adjacency() const { return adjacency_; }

  /// Offset of the first neighbor of `w` inside adjacency(). Together with
  /// Degree(), this lets peeling code address per-edge side arrays.
  EdgeOffset NeighborOffset(VertexId w) const { return offsets_[w]; }

  // -- derived quantities ---------------------------------------------------
  /// Number of wedges with *endpoint* w: Σ_{x ∈ N(w)} (d_x − 1). The paper's
  /// w[u] (Alg. 3) and the per-vertex peeling cost model.
  Count WedgeCount(VertexId w) const;

  /// Σ over a side of WedgeCount — the ∧ workload of peeling that side.
  Count TotalWedges(Side side) const;

  /// Σ_{(u,v) ∈ E} min(d_u, d_v) — the vertex-priority counting cost bound
  /// (C_rcnt in §4.1).
  Count CountingCostBound() const;

  /// Average degree of a side (|E| / side size).
  double AverageDegree(Side side) const;

  // -- transforms ------------------------------------------------------------
  /// Returns a copy of this graph whose U side is the current V side and vice
  /// versa. Peeling algorithms always decompose the U side; callers wanting a
  /// V-side decomposition swap first. A block copy of the two CSR halves.
  BipartiteGraph SwappedCopy() const;

  /// Returns a priority rank per vertex: rank[w] = position of w in
  /// descending-degree order (rank 0 = highest degree). Ties broken by id so
  /// the rank is a strict total order. This is the vertex-priority used by
  /// the counting kernel; lower rank = higher priority.
  std::vector<VertexId> DegreeDescendingRanks() const;

  /// Allocation-free variant: fills `rank` (resized to num_vertices())
  /// using `bucket_scratch` for the counting sort's per-degree buckets
  /// (max degree + 1 entries), both reusing their capacity.
  void DegreeDescendingRanksInto(std::vector<VertexId>& rank,
                                 std::vector<VertexId>& bucket_scratch) const;

  /// Capacity of the CSR arrays in elements — the arena-reuse telemetry
  /// that lets growth tests see through in-place rebuilds.
  size_t CapacityFootprint() const {
    return offsets_.capacity() + adjacency_.capacity();
  }

  /// Returns the edge list in side-local coordinates (u ascending, then v).
  std::vector<Edge> ToEdges() const;

  /// Asserts internal invariants (sorted adjacency, symmetric edges,
  /// consistent offsets). Returns an explanation on failure, empty on
  /// success. Used by tests and after IO.
  std::string Validate() const;

 private:
  VertexId num_u_ = 0;
  VertexId num_v_ = 0;
  std::vector<EdgeOffset> offsets_;   // size num_vertices()+1
  std::vector<VertexId> adjacency_;   // size 2*|E|, sorted per vertex
};

}  // namespace receipt

#endif  // RECEIPT_GRAPH_BIPARTITE_GRAPH_H_

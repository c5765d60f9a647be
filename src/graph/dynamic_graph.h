#ifndef RECEIPT_GRAPH_DYNAMIC_GRAPH_H_
#define RECEIPT_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt {

/// A peelable view of a BipartiteGraph: vertices can be killed (peeled) and
/// adjacency lists periodically *compacted* to drop edges incident to dead
/// vertices — the paper's Dynamic Graph Maintenance optimization (§4.2).
///
/// Adjacency lists are laid out by a caller-supplied priority rank at
/// construction (ascending rank = descending degree in the original graph;
/// an O(n + m) rank-order scatter, see Reset()),
/// which is the order the vertex-priority butterfly-counting kernel (Alg. 1)
/// needs for its break rule. Compaction preserves this order, so HUC
/// re-counts (§4.1) run directly on the compacted structure.
///
/// Between compactions, Degree()/Neighbors() may still include dead
/// vertices; traversals must skip them via IsAlive(). After Compact() the
/// lists of *live* vertices contain only live neighbors.
///
/// Compaction pays only for what changed: the view records the vertices
/// killed since the last Compact(), and only their live neighbours' lists
/// can hold a dead entry, so only those lists are filtered.
class DynamicGraph {
 public:
  /// An empty graph; fill in with Reset(). Exists so DynamicGraphs can live
  /// inside reusable arenas (one per FD workspace).
  DynamicGraph() = default;

  /// `rank` must be a permutation of [0, num_vertices) (see
  /// BipartiteGraph::DegreeDescendingRanks). Lower rank = higher priority.
  DynamicGraph(const BipartiteGraph& graph, std::span<const VertexId> rank) {
    Reset(graph, rank);
  }

  /// Re-initializes this view over `graph` (everything alive, adjacency
  /// in ascending `rank`), reusing the internal arrays' capacity — the
  /// allocation-free path for arena-resident per-partition graphs. O(n + m).
  void Reset(const BipartiteGraph& graph, std::span<const VertexId> rank);

  /// Capacity of the internal arrays in elements (arena-reuse telemetry).
  size_t CapacityFootprint() const {
    return offsets_.capacity() + adjacency_.capacity() + degree_.capacity() +
           alive_.capacity() + rank_.capacity() + mark_.capacity() +
           killed_.capacity() + DirtyCapacity();
  }

  VertexId num_u() const { return num_u_; }
  VertexId num_v() const { return num_v_; }
  VertexId num_vertices() const { return num_u_ + num_v_; }
  bool IsU(VertexId w) const { return w < num_u_; }

  bool IsAlive(VertexId w) const { return alive_[w] != 0; }
  /// Marks `w` dead and records it for the next Compact(). Does not touch
  /// adjacency (lazy; see Compact()). Killing a dead vertex is a no-op. Not
  /// thread-safe: peeling loops kill a round's vertices before forking.
  void Kill(VertexId w) {
    if (alive_[w] == 0) return;
    alive_[w] = 0;
    mark_[w] = 1;
    killed_.push_back(w);
  }

  /// Current degree: number of entries in the (possibly uncompacted)
  /// adjacency list. An upper bound on the live degree.
  uint64_t Degree(VertexId w) const { return degree_[w]; }

  std::span<const VertexId> Neighbors(VertexId w) const {
    return {adjacency_.data() + offsets_[w],
            adjacency_.data() + offsets_[w] + degree_[w]};
  }

  /// Priority rank of a vertex (fixed at construction).
  VertexId Rank(VertexId w) const { return rank_[w]; }

  /// Removes dead entries from every live vertex's adjacency list, updating
  /// degrees, and drops the lists of the vertices killed since the last
  /// Compact(). Only the live neighbours of those vertices are filtered, so
  /// the cost is the total length of the touched lists, not the graph's
  /// size. Runs inline when that total is small, and on `num_threads`
  /// threads otherwise.
  ///
  /// If `recount_bound` is non-null it must hold RecountCostBound() as of
  /// the previous Compact() (or Reset()); it is moved to the value after
  /// this one by the terms of the edges the compaction removed or
  /// re-degreed. The result equals a fresh RecountCostBound() exactly.
  void Compact(int num_threads, Count* recount_bound = nullptr);

  /// Σ of current degrees over live vertices (≈ 2·live edges once
  /// compacted; an upper bound otherwise). Used for the DGM trigger.
  uint64_t LiveEdgeSlots() const;

  /// Σ_{(u,v) live} min(d_u, d_v) with current degrees — the re-counting
  /// cost bound C_rcnt of §4.1. Exact after a Compact(), an overestimate
  /// between compactions (safe: HUC then triggers less often, never
  /// wrongly). An integer reduction over `num_threads` threads whose value
  /// does not depend on the thread count.
  Count RecountCostBound(int num_threads = 1) const;

  /// Σ_{x ∈ N(w), alive} (d_x − 1) with current degrees: the live wedge
  /// count of `w`, i.e. the cost of peeling it now.
  Count LiveWedgeCount(VertexId w) const;

  /// Number of live vertices on a side.
  VertexId NumAlive(Side side) const;

 private:
  /// One thread's share of a Compact() loop: the dirty vertices it claimed
  /// and its partial sums, folded after the join. Integer sums are exact in
  /// any order, so nothing depends on the thread count or the schedule.
  struct Lane {
    std::vector<VertexId> dirty;
    uint64_t work = 0;
    Count removed = 0;
    Count added = 0;
  };

  /// Collects into dirty_ the live neighbours of the killed vertices,
  /// marking them, and returns the total length of their lists. If
  /// `track`, adds to the lanes' `removed` the min(d_k, d_x) terms of the
  /// edges of every killed U vertex k.
  uint64_t GatherDirty(int num_threads, bool track);

  /// Adds to the lanes' `sum` the terms min(d_w, d_x), with current
  /// degrees, of the edges from a dirty U vertex w to a marked x.
  void AddDirtyPairTerms(int num_threads, Count Lane::*sum);

  /// Drops the dead entries of w's list. If `track`, adds the min terms of
  /// w's edges to unmarked vertices to `removed` (old degree of w) and
  /// `added` (new degree).
  void FilterList(VertexId w, bool track, Count& removed, Count& added);

  /// Capacity of dirty_ and of every lane's buffer: GatherDirty swaps
  /// buffers between them.
  size_t DirtyCapacity() const {
    size_t total = dirty_.capacity();
    for (const Lane& lane : lanes_) total += lane.dirty.capacity();
    return total;
  }

  VertexId num_u_ = 0;
  VertexId num_v_ = 0;
  std::vector<EdgeOffset> offsets_;    // fixed slot layout from the source
  std::vector<VertexId> adjacency_;    // mutable; compacted in place
  std::vector<uint64_t> degree_;       // live prefix length per vertex
  std::vector<uint8_t> alive_;
  std::vector<VertexId> rank_;
  // Compaction bookkeeping, all empty / zero right after a Compact():
  std::vector<uint8_t> mark_;       // 1 for killed_ and dirty_ members
  std::vector<VertexId> killed_;    // killed since the last Compact()
  std::vector<VertexId> dirty_;     // their live neighbours (Compact scratch)
  std::vector<Lane> lanes_;         // per-thread Compact scratch
};

}  // namespace receipt

#endif  // RECEIPT_GRAPH_DYNAMIC_GRAPH_H_

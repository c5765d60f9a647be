#include "graph/dynamic_graph.h"

#include <algorithm>

#include "util/parallel.h"

namespace receipt {

void DynamicGraph::Reset(const BipartiteGraph& graph,
                         std::span<const VertexId> rank) {
  num_u_ = graph.num_u();
  num_v_ = graph.num_v();
  const VertexId n = num_vertices();
  alive_.assign(n, 1);
  rank_.assign(rank.begin(), rank.end());

  // Lay every list out in ascending rank (the order the counting kernel's
  // break rule, Alg. 1 line 10, requires) by a rank-order scatter: visit
  // vertices by ascending rank and append each to its neighbours' lists.
  // degree_ holds the visiting order (rank -> vertex) until the end, and
  // offsets_ serves as the append cursors, so the pass is O(n + m) with no
  // scratch beyond the view's own arrays.
  degree_.resize(n);
  for (VertexId w = 0; w < n; ++w) degree_[rank_[w]] = w;
  offsets_.assign(graph.offsets().begin(), graph.offsets().end());
  adjacency_.resize(graph.adjacency().size());
  for (VertexId r = 0; r < n; ++r) {
    const VertexId x = static_cast<VertexId>(degree_[r]);
    for (const VertexId y : graph.Neighbors(x)) adjacency_[offsets_[y]++] = x;
  }
  // Each cursor now holds the next vertex's start: shift them back.
  if (n > 0) {
    std::copy_backward(offsets_.begin(), offsets_.end() - 2,
                       offsets_.end() - 1);
    offsets_[0] = 0;
  }
  for (VertexId w = 0; w < n; ++w) degree_[w] = offsets_[w + 1] - offsets_[w];
}

void DynamicGraph::Compact(int num_threads) {
  const VertexId n = num_vertices();
  ParallelFor(n, num_threads, [this](size_t w) {
    if (!alive_[w]) {
      degree_[w] = 0;
      return;
    }
    VertexId* begin = adjacency_.data() + offsets_[w];
    uint64_t kept = 0;
    const uint64_t deg = degree_[w];
    for (uint64_t i = 0; i < deg; ++i) {
      const VertexId x = begin[i];
      if (alive_[x]) begin[kept++] = x;  // stable: preserves rank order
    }
    degree_[w] = kept;
  });
}

uint64_t DynamicGraph::LiveEdgeSlots() const {
  uint64_t total = 0;
  const VertexId n = num_vertices();
  for (VertexId w = 0; w < n; ++w) {
    if (alive_[w]) total += degree_[w];
  }
  return total;
}

Count DynamicGraph::RecountCostBound(int num_threads) const {
  return ParallelReduceSum<Count>(num_u_, num_threads, [this](size_t u) {
    Count total = 0;
    if (!alive_[u]) return total;
    const uint64_t du = degree_[u];
    for (VertexId v : Neighbors(static_cast<VertexId>(u))) {
      if (alive_[v]) total += std::min<Count>(du, degree_[v]);
    }
    return total;
  });
}

Count DynamicGraph::LiveWedgeCount(VertexId w) const {
  Count total = 0;
  for (VertexId x : Neighbors(w)) {
    if (alive_[x] && degree_[x] > 0) total += degree_[x] - 1;
  }
  return total;
}

VertexId DynamicGraph::NumAlive(Side side) const {
  const VertexId begin = side == Side::kU ? 0 : num_u_;
  const VertexId end = side == Side::kU ? num_u_ : num_vertices();
  VertexId count = 0;
  for (VertexId w = begin; w < end; ++w) count += alive_[w];
  return count;
}

}  // namespace receipt

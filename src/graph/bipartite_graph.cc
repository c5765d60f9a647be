#include "graph/bipartite_graph.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace receipt {

BipartiteGraph BipartiteGraph::FromEdges(VertexId num_u, VertexId num_v,
                                         std::vector<Edge> edges) {
  BipartiteGraph g;
  g.AssignFromEdges(num_u, num_v, edges);
  // The edge sort borrows adjacency_ at the input's length; a fresh graph
  // keeps only what its deduplicated edges need.
  g.adjacency_.shrink_to_fit();
  return g;
}

void BipartiteGraph::AssignFromEdges(VertexId num_u, VertexId num_v,
                                     std::vector<Edge>& edges) {
  for (const Edge& e : edges) {
    if (e.u >= num_u || e.v >= num_v) {
      std::fprintf(stderr,
                   "BipartiteGraph::AssignFromEdges: edge (%u, %u) out of "
                   "range (num_u=%u, num_v=%u)\n",
                   e.u, e.v, num_u, num_v);
      std::abort();
    }
  }
  num_u_ = num_u;
  num_v_ = num_v;
  const VertexId n = num_u + num_v;
  const size_t m_in = edges.size();

  // Sort by (u, v) with two stable counting passes, by v and then by u
  // (LSD radix on the two keys). offsets_ serves as the per-key cursors
  // (V keys at [num_u, n], U keys at [0, num_u]) and adjacency_ holds the
  // v-ordered intermediate as split u / v halves, so the sort needs no
  // storage beyond the CSR arrays it is about to fill.
  offsets_.assign(n + 1, 0);
  adjacency_.resize(2 * m_in);
  EdgeOffset* v_cursor = offsets_.data() + num_u;
  for (const Edge& e : edges) ++v_cursor[e.v + 1];
  for (VertexId v = 0; v < num_v; ++v) v_cursor[v + 1] += v_cursor[v];
  for (const Edge& e : edges) {
    const EdgeOffset slot = v_cursor[e.v]++;
    adjacency_[slot] = e.u;
    adjacency_[m_in + slot] = e.v;
  }
  std::fill(offsets_.begin(), offsets_.begin() + num_u + 1, 0);
  for (size_t i = 0; i < m_in; ++i) ++offsets_[adjacency_[i] + 1];
  for (VertexId u = 0; u < num_u; ++u) offsets_[u + 1] += offsets_[u];
  for (size_t i = 0; i < m_in; ++i) {
    const VertexId u = adjacency_[i];
    edges[offsets_[u]++] = Edge{.u = u, .v = adjacency_[m_in + i]};
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // CSR fill. Edges are in (u, v) order, so each U list is a contiguous
  // ascending run of the edge list, and each V list fills in ascending u.
  std::fill(offsets_.begin(), offsets_.end(), 0);
  for (const Edge& e : edges) {
    ++offsets_[e.u + 1];
    ++offsets_[num_u + e.v + 1];
  }
  for (VertexId w = 0; w < n; ++w) offsets_[w + 1] += offsets_[w];
  const size_t m = edges.size();
  adjacency_.resize(2 * m);
  for (size_t i = 0; i < m; ++i) adjacency_[i] = num_u + edges[i].v;
  // V lists use their own start offsets as fill cursors; afterwards each
  // holds the next vertex's start, so one shift restores them.
  v_cursor = offsets_.data() + num_u;
  for (const Edge& e : edges) adjacency_[v_cursor[e.v]++] = e.u;
  std::copy_backward(v_cursor, v_cursor + num_v, v_cursor + num_v + 1);
  v_cursor[0] = m;
}

Count BipartiteGraph::WedgeCount(VertexId w) const {
  Count total = 0;
  for (VertexId x : Neighbors(w)) total += Degree(x) - 1;
  return total;
}

Count BipartiteGraph::TotalWedges(Side side) const {
  Count total = 0;
  for (VertexId w = SideBegin(side); w < SideEnd(side); ++w) {
    total += WedgeCount(w);
  }
  return total;
}

Count BipartiteGraph::CountingCostBound() const {
  Count total = 0;
  for (VertexId u = 0; u < num_u_; ++u) {
    const Count du = Degree(u);
    for (VertexId v : Neighbors(u)) total += std::min(du, Count{Degree(v)});
  }
  return total;
}

double BipartiteGraph::AverageDegree(Side side) const {
  const VertexId n = SideSize(side);
  if (n == 0) return 0.0;
  return static_cast<double>(num_edges()) / static_cast<double>(n);
}

BipartiteGraph BipartiteGraph::SwappedCopy() const {
  // A block transpose: the V half of the CSR becomes the new U half and
  // vice versa, with ids shifted into the new sides. Each list keeps its
  // order (the shift is monotone), so the result is exactly what FromEdges
  // of the swapped edge list builds.
  BipartiteGraph swapped;
  swapped.num_u_ = num_v_;
  swapped.num_v_ = num_u_;
  const VertexId n = num_vertices();
  const EdgeOffset m = num_edges();
  swapped.offsets_.resize(static_cast<size_t>(n) + 1);
  for (VertexId v = 0; v < num_v_; ++v) {
    swapped.offsets_[v] = offsets_[num_u_ + v] - m;
  }
  for (VertexId u = 0; u <= num_u_; ++u) {
    swapped.offsets_[num_v_ + u] = offsets_[u] + m;
  }
  swapped.adjacency_.resize(2 * m);
  for (EdgeOffset i = 0; i < m; ++i) {
    swapped.adjacency_[i] = adjacency_[m + i] + num_v_;
    swapped.adjacency_[m + i] = adjacency_[i] - num_u_;
  }
  return swapped;
}

std::vector<VertexId> BipartiteGraph::DegreeDescendingRanks() const {
  std::vector<VertexId> rank;
  std::vector<VertexId> bucket;
  DegreeDescendingRanksInto(rank, bucket);
  return rank;
}

void BipartiteGraph::DegreeDescendingRanksInto(
    std::vector<VertexId>& rank, std::vector<VertexId>& bucket_scratch) const {
  // A counting sort on degree: bucket[d] becomes the first rank of degree d
  // (the number of vertices of higher degree), and visiting vertices in id
  // order keeps equal degrees in ascending id. A degree is at most the
  // other side's size, so there are never more buckets than vertices.
  const VertexId n = num_vertices();
  uint64_t max_degree = 0;
  for (VertexId w = 0; w < n; ++w) max_degree = std::max(max_degree, Degree(w));
  bucket_scratch.assign(max_degree + 1, 0);
  for (VertexId w = 0; w < n; ++w) ++bucket_scratch[Degree(w)];
  VertexId next = 0;
  for (uint64_t d = max_degree + 1; d-- > 0;) {
    const VertexId size = bucket_scratch[d];
    bucket_scratch[d] = next;
    next += size;
  }
  rank.resize(n);
  for (VertexId w = 0; w < n; ++w) rank[w] = bucket_scratch[Degree(w)]++;
}

std::vector<BipartiteGraph::Edge> BipartiteGraph::ToEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (VertexId u = 0; u < num_u_; ++u) {
    for (VertexId gv : Neighbors(u)) {
      edges.push_back(Edge{.u = u, .v = gv - num_u_});
    }
  }
  return edges;
}

std::string BipartiteGraph::Validate() const {
  std::ostringstream err;
  const VertexId n = num_vertices();
  if (offsets_.size() != static_cast<size_t>(n) + 1) {
    err << "offsets size " << offsets_.size() << " != n+1";
    return err.str();
  }
  if (offsets_[0] != 0 || offsets_[n] != adjacency_.size()) {
    err << "offset endpoints invalid";
    return err.str();
  }
  for (VertexId w = 0; w < n; ++w) {
    if (offsets_[w] > offsets_[w + 1]) {
      err << "offsets not monotone at " << w;
      return err.str();
    }
    auto nbrs = Neighbors(w);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId x = nbrs[i];
      if (x >= n) {
        err << "neighbor out of range: " << w << " -> " << x;
        return err.str();
      }
      if (IsU(w) == IsU(x)) {
        err << "edge within one side: " << w << " -> " << x;
        return err.str();
      }
      if (i > 0 && nbrs[i - 1] >= x) {
        err << "adjacency of " << w << " not strictly ascending";
        return err.str();
      }
      // Symmetry: w must appear in x's list.
      auto back = Neighbors(x);
      if (!std::binary_search(back.begin(), back.end(), w)) {
        err << "edge " << w << " -> " << x << " not symmetric";
        return err.str();
      }
    }
  }
  return "";
}

}  // namespace receipt

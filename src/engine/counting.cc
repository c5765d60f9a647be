#include "engine/counting.h"

#include <algorithm>

#include "util/parallel.h"

namespace receipt::engine {
namespace {

/// Body of Alg. 1 for one start point `sp`: the vertex-priority algorithm
/// of Chiba–Nishizeki with the cache-efficient degree-descending relabeling
/// of Wang et al. and the batch-aggregation parallelization of ParButterfly.
///
/// A wedge (sp, mp, ep) has its end points on sp's side and its mid point
/// on the other, so under CountScope::kUOnly a U start point credits only
/// the end points (same-side pass) and a V start point only the mid points
/// (opposite-side pass). The wedges traversed are the same either way.
void CountFromStartPoint(const DynamicGraph& graph, PeelWorkspace& ws,
                         VertexId sp, CountScope scope,
                         std::span<Count> support) {
  if (!graph.IsAlive(sp)) return;
  const bool credit_ends = scope == CountScope::kBothSides || graph.IsU(sp);
  const bool credit_mids = scope == CountScope::kBothSides || !graph.IsU(sp);
  const VertexId sp_rank = graph.Rank(sp);
  ws.touched.clear();
  ws.wedge_pairs.clear();

  for (const VertexId mp : graph.Neighbors(sp)) {
    if (!graph.IsAlive(mp)) continue;
    const VertexId mp_rank = graph.Rank(mp);
    for (const VertexId ep : graph.Neighbors(mp)) {
      // Neighbors are sorted by ascending rank, so the first endpoint that
      // fails the priority rule ends this wedge group (Alg. 1 line 10).
      const VertexId ep_rank = graph.Rank(ep);
      if (ep_rank >= mp_rank || ep_rank >= sp_rank) break;
      ++ws.wedges_traversed;
      if (!graph.IsAlive(ep)) continue;  // uncompacted dead entry
      if (ws.wedge_count[ep]++ == 0) ws.touched.push_back(ep);
      if (credit_mids) ws.wedge_pairs.emplace_back(mp, ep);
    }
  }

  // Same-side contribution: every pair of wedges with endpoints (sp, ep)
  // closes one butterfly; it belongs to both endpoints.
  if (credit_ends) {
    Count sp_total = 0;
    for (const VertexId ep : ws.touched) {
      const Count bcnt = Choose2(ws.wedge_count[ep]);
      if (bcnt > 0) {
        AtomicAdd(&support[ep], bcnt);
        sp_total += bcnt;
      }
    }
    if (sp_total > 0) AtomicAdd(&support[sp], sp_total);
  }

  // Opposite-side contribution: a wedge (sp, mp, ep) participates in
  // (wedge_count[ep] - 1) butterflies, all incident on its mid point. The
  // list is grouped by mid point (the traversal's outer loop), so each mid
  // point's share is summed first and credited with one atomic add.
  const auto& pairs = ws.wedge_pairs;
  for (size_t i = 0; i < pairs.size();) {
    const VertexId mp = pairs[i].first;
    Count mp_total = 0;
    for (; i < pairs.size() && pairs[i].first == mp; ++i) {
      mp_total += static_cast<Count>(ws.wedge_count[pairs[i].second] - 1);
    }
    if (mp_total > 0) AtomicAdd(&support[mp], mp_total);
  }

  // Restore the workspace's clean-state invariant (dense array zeroed,
  // transient lists drained) so scratch inspection between kernels is
  // meaningful.
  for (const VertexId ep : ws.touched) ws.wedge_count[ep] = 0;
  ws.touched.clear();
  ws.wedge_pairs.clear();
}

/// True when per-edge counting starts from U: every start point walks
/// Σ_{x∈N(a)} d(x) wedges twice, so starting from U costs 2·Σ_v d(v)² and
/// starting from V costs 2·Σ_u d(u)². Ties start from U.
bool EdgeCountStartsFromU(const EdgeTopology& topo) {
  Count squares_u = 0;
  Count squares_v = 0;
  for (VertexId w = 0; w < topo.num_vertices(); ++w) {
    const Count d = topo.Degree(w);
    (w < topo.num_u ? squares_u : squares_v) += d * d;
  }
  return squares_v <= squares_u;
}

}  // namespace

uint64_t CountVertexButterflies(const DynamicGraph& graph,
                                std::span<PeelWorkspace> team,
                                std::span<Count> support, CountScope scope) {
  const VertexId n = graph.num_vertices();
  const int num_threads = static_cast<int>(team.size());
  uint64_t wedges_before = 0;
  for (PeelWorkspace& ws : team) {
    ws.EnsureVertexCapacity(n);
    wedges_before += ws.wedges_traversed;
  }
  ParallelFor(n, num_threads, [&support](size_t w) { support[w] = 0; });
  ParallelForWithContext(
      n, num_threads, team, [&](PeelWorkspace& ws, size_t sp) {
        CountFromStartPoint(graph, ws, static_cast<VertexId>(sp), scope,
                            support);
      });
  uint64_t wedges_after = 0;
  for (const PeelWorkspace& ws : team) wedges_after += ws.wedges_traversed;
  return wedges_after - wedges_before;
}

uint64_t CountEdgeButterflies(const EdgeTopology& topo, WorkspacePool& pool,
                              int num_threads, std::span<Count> support) {
  const bool from_u = EdgeCountStartsFromU(topo);
  const VertexId first = from_u ? 0 : topo.num_u;
  const VertexId num_starts =
      from_u ? topo.num_u : topo.num_vertices() - topo.num_u;
  pool.Prepare(std::max(1, num_threads), topo.num_vertices());
  const uint64_t wedges_before = pool.TotalWedges();
  ParallelForWithContext(
      num_starts, num_threads, pool.Team(num_threads),
      [&](PeelWorkspace& ws, size_t i) {
        const VertexId a = first + static_cast<VertexId>(i);
        ws.touched.clear();
        for (const EdgeTopology::Entry& mid : topo.Run(a)) {
          for (const EdgeTopology::Entry& end : topo.Run(mid.nbr)) {
            ++ws.wedges_traversed;
            if (end.nbr == a) continue;
            if (ws.wedge_count[end.nbr]++ == 0) ws.touched.push_back(end.nbr);
          }
        }
        // bcnt(a, b) = Σ_{c ∈ N(b)\{a}} (common(a, c) − 1).
        for (const EdgeTopology::Entry& mid : topo.Run(a)) {
          Count bcnt = 0;
          for (const EdgeTopology::Entry& end : topo.Run(mid.nbr)) {
            ++ws.wedges_traversed;
            if (end.nbr == a) continue;
            const uint64_t common = ws.wedge_count[end.nbr];
            if (common >= 2) bcnt += common - 1;
          }
          support[mid.edge] = bcnt;
        }
        for (const VertexId c : ws.touched) ws.wedge_count[c] = 0;
        ws.touched.clear();
      });
  return pool.TotalWedges() - wedges_before;
}

}  // namespace receipt::engine

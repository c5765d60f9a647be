#ifndef RECEIPT_ENGINE_PEEL_KERNELS_H_
#define RECEIPT_ENGINE_PEEL_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/workspace.h"
#include "graph/dynamic_graph.h"
#include "util/parallel.h"
#include "util/types.h"
#include "wing/edge_topology.h"

namespace receipt::engine {

/// Edge life-cycle during wing (edge) peeling. kEdgePeeling marks the
/// current round's extraction set: still part of butterflies for
/// enumeration purposes, but already claimed — the §7 priority rule
/// arbitrates which peeling edge applies each butterfly's update. A
/// kEdgeDead edge is no longer in the live runs.
enum EdgeState : uint8_t { kEdgeDead = 0, kEdgeAlive = 1, kEdgePeeling = 2 };

/// The tip support-update kernel of Alg. 2 (lines 6-13), shared by BUP,
/// ParB and both RECEIPT steps.
///
/// Peels `u` (which must already be marked dead in `graph`): traverses all
/// live wedges (u, v, u2), aggregates shared-butterfly counts
/// ⊲⊳_{u,u2} = C(common_live_neighbors, 2) in the workspace's dense array,
/// and decrements each live u2's support, clamped from below at `floor`
/// (the tip number of u, or the range lower bound θ(i) in RECEIPT CD —
/// Lemma 2).
///
/// kAtomic selects lock-free clamped decrements for concurrent peeling.
/// `on_updated(u2, new_support)` fires once per updated vertex (used to
/// track candidates for the next active set / heap pushes / re-bucketing).
///
/// Returns the number of wedges traversed.
template <bool kAtomic, typename OnUpdated>
uint64_t PeelVertex(const DynamicGraph& graph, VertexId u, Count floor,
                    std::span<Count> support, PeelWorkspace& ws,
                    OnUpdated&& on_updated) {
  uint64_t wedges = 0;
  for (const VertexId v : graph.Neighbors(u)) {
    if (!graph.IsAlive(v)) continue;
    for (const VertexId u2 : graph.Neighbors(v)) {
      ++wedges;
      if (!graph.IsAlive(u2)) continue;  // includes u itself (already dead)
      if (ws.wedge_count[u2]++ == 0) ws.touched.push_back(u2);
    }
  }
  for (const VertexId u2 : ws.touched) {
    const Count delta = Choose2(ws.wedge_count[u2]);
    ws.wedge_count[u2] = 0;
    if (delta == 0) continue;
    Count new_support;
    if constexpr (kAtomic) {
      new_support = AtomicClampedSub(&support[u2], delta, floor);
    } else {
      const Count cur = support[u2];
      new_support = (cur > floor + delta) ? cur - delta : floor;
      support[u2] = new_support;
    }
    on_updated(u2, new_support);
  }
  ws.touched.clear();
  return wedges;
}

/// The walk-direction rule of the wing peel kernel for edge e = (u, v):
/// true walks via V (mark N(u), scan N(u2) for every u2 ∈ N(v)), false
/// walks via U (mark N(v), scan N(v2) for every v2 ∈ N(u)). Each side's
/// cost when the runs were built is its mark pass plus its walk,
/// d(u) + walk[v] against d(v) + walk[u]; ties walk via V.
inline bool PeelWalksViaV(const EdgeTopology& topo, EdgeOffset e) {
  const VertexId u = topo.source[e];
  const VertexId gv = topo.target[e];
  return topo.Degree(u) + topo.walk[gv] <= topo.Degree(gv) + topo.walk[u];
}

/// The wing (edge) peel kernel: enumerates every butterfly of `e` in the
/// live runs of `topo` for which `e` is the applier (the minimum-id
/// kEdgePeeling edge in the butterfly), invoking `apply(x)` for each of
/// the butterfly's other edges x that are still kEdgeAlive. Returns wedges
/// traversed.
///
/// Precondition: no run holds a dead edge (the peel loops remove each edge
/// from its runs once it is dead), so every butterfly met is live. Edges
/// being peeled stay in the runs until their round ends, and the §7
/// priority rule arbitrates between them.
///
/// Each butterfly {e = (u, v), f = (u2, v), g2 = (u2, v2), h = (u, v2)} is
/// found from whichever end of e walks less (PeelWalksViaV): via V, N(u)
/// is marked with h and each f's U end u2 is scanned for g2; via U, N(v)
/// is marked with f and each h's V end v2 is scanned for g2. One loop body
/// serves both directions and hands each butterfly to one body, so the
/// updates do not depend on the direction taken.
///
/// Uses the workspace's mark array, indexed by global vertex id (zero
/// before and after).
template <typename Apply>
uint64_t PeelEdgeButterflies(const EdgeTopology& topo,
                             const std::vector<uint8_t>& state, EdgeOffset e,
                             PeelWorkspace& ws, Apply&& apply) {
  // Butterfly {e, f, g2, h}. Priority rule: the minimum-id peeling edge
  // applies the update; everyone else skips.
  const auto butterfly = [&](EdgeOffset f, EdgeOffset g2, EdgeOffset h) {
    if ((state[f] == kEdgePeeling && f < e) ||
        (state[g2] == kEdgePeeling && g2 < e) ||
        (state[h] == kEdgePeeling && h < e)) {
      return;
    }
    if (state[f] == kEdgeAlive) apply(f);
    if (state[g2] == kEdgeAlive) apply(g2);
    if (state[h] == kEdgeAlive) apply(h);
  };

  // Via V the marked end is u and the walked end v, so a walked edge p is
  // f and a marked edge q is h; via U the roles swap.
  const bool via_v = PeelWalksViaV(topo, e);
  const VertexId marked = via_v ? topo.source[e] : topo.target[e];
  const VertexId walked = via_v ? topo.target[e] : topo.source[e];
  std::vector<uint32_t>& mark = ws.edge_mark;
  for (const EdgeTopology::Entry& entry : topo.Run(marked)) {
    mark[entry.nbr] = entry.edge + 1;
  }
  uint64_t wedges = 0;
  for (const EdgeTopology::Entry& mid : topo.Run(walked)) {
    const EdgeOffset p = mid.edge;
    if (p == e) continue;
    for (const EdgeTopology::Entry& end : topo.Run(mid.nbr)) {
      ++wedges;
      if (end.nbr == walked) continue;  // the entry is p; mark[walked] is e
      const uint32_t q_plus1 = mark[end.nbr];
      if (q_plus1 == 0) continue;
      const EdgeOffset q = q_plus1 - 1;
      if (via_v) {
        butterfly(p, end.edge, q);
      } else {
        butterfly(q, end.edge, p);
      }
    }
  }
  for (const EdgeTopology::Entry& entry : topo.Run(marked)) {
    mark[entry.nbr] = 0;
  }
  return wedges;
}

/// findHi (Alg. 3 lines 16-21) for both vertex and edge ranges: the
/// smallest support value s such that the cumulative static peel-cost of
/// alive entities with support ≤ s reaches `target`, returned as the
/// exclusive bound s+1. Falls back to max_support+1 when the total cost
/// mass is below the target, and to kInvalidCount (an unbounded range
/// absorbing everything) when no entities remain — the empty-input guard.
///
/// Cumulates in exact integer arithmetic (the crossing only depends on the
/// cost multiset per support value, so the result is permutation- and
/// schedule-independent — the property the SupportIndex histogram walk
/// relies on to agree with this vector form). Implemented by
/// quickselect-style partial selection rather than a full sort: when the
/// target lands early in the support order — the common case, since range
/// targets are a 1/P' fraction of the remaining mass — only the low
/// partitions are ever ordered. Partitions `support_and_cost` in place.
Count FindRangeBound(std::vector<std::pair<Count, Count>>& support_and_cost,
                     double target);

/// Integer-target core of FindRangeBound: the smallest support s whose
/// cumulative cost reaches `need` (an exact Count), as the exclusive bound
/// s+1. Shared by the vector form (after ceil-converting its double target)
/// and the SupportIndex in-bucket refine, so both resolve crossings with
/// identical arithmetic. Partitions `support_and_cost` in place.
Count FindRangeBoundNeed(std::vector<std::pair<Count, Count>>& support_and_cost,
                         Count need);

/// The one double-target → integer-need conversion: cumulative cost is an
/// exact Count, so crossing the double target is equivalent to reaching
/// its ceiling (clamped to ≥ 1, and capped below 2^64 for pathological
/// inputs). FindRangeBound applies it internally and RangeDecomposer
/// applies it before the histogram walk, so both pick the same bound.
Count RangeCostNeed(double target);

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_PEEL_KERNELS_H_

#include "graph/dynamic_graph.h"

#include <algorithm>
#include <atomic>

#include "util/parallel.h"

namespace receipt {

void DynamicGraph::Reset(const BipartiteGraph& graph,
                         std::span<const VertexId> rank) {
  num_u_ = graph.num_u();
  num_v_ = graph.num_v();
  const VertexId n = num_vertices();
  alive_.assign(n, 1);
  rank_.assign(rank.begin(), rank.end());
  mark_.assign(n, 0);
  killed_.clear();
  killed_.reserve(n);

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

uint64_t DynamicGraph::GatherDirty(int num_threads, bool track) {
  // Threads claim each neighbour by an atomic exchange on its mark, so
  // every dirty vertex lands in exactly one lane. The lanes' order depends
  // on the schedule; nothing downstream does.
  ParallelForWithContext(
      killed_.size(), num_threads, lanes_,
      [this, track](Lane& lane, size_t i) {
        const VertexId k = killed_[i];
        const uint64_t dk = degree_[k];
        const bool count = track && IsU(k);
        for (const VertexId x : Neighbors(k)) {
          if (count) lane.removed += std::min<Count>(dk, degree_[x]);
          if (alive_[x] == 0) continue;
          std::atomic_ref<uint8_t> mark(mark_[x]);
          if (mark.load(std::memory_order_relaxed) != 0 ||
              mark.exchange(1, std::memory_order_relaxed) != 0) {
            continue;
          }
          lane.dirty.push_back(x);
          lane.work += degree_[x];
        }
      },
      /*chunk=*/16);
  dirty_.swap(lanes_[0].dirty);
  uint64_t work = lanes_[0].work;
  for (size_t t = 1; t < lanes_.size(); ++t) {
    dirty_.insert(dirty_.end(), lanes_[t].dirty.begin(), lanes_[t].dirty.end());
    work += lanes_[t].work;
  }
  return work;
}

void DynamicGraph::AddDirtyPairTerms(int num_threads, Count Lane::*sum) {
  ParallelForWithContext(
      dirty_.size(), num_threads, lanes_,
      [this, sum](Lane& lane, size_t i) {
        const VertexId w = dirty_[i];
        if (!IsU(w)) return;
        const uint64_t dw = degree_[w];
        for (const VertexId x : Neighbors(w)) {
          if (mark_[x] != 0) lane.*sum += std::min<Count>(dw, degree_[x]);
        }
      },
      /*chunk=*/16);
}

void DynamicGraph::FilterList(VertexId w, bool track, Count& removed,
                              Count& added) {
  VertexId* begin = adjacency_.data() + offsets_[w];
  const uint64_t before = degree_[w];
  uint64_t kept = 0;
  for (uint64_t i = 0; i < before; ++i) {
    const VertexId x = begin[i];
    if (alive_[x] == 0) continue;
    begin[kept++] = x;  // stable: preserves rank order
    if (track && mark_[x] == 0) removed += std::min<Count>(before, degree_[x]);
  }
  degree_[w] = kept;
  if (!track) return;
  for (uint64_t i = 0; i < kept; ++i) {
    const VertexId x = begin[i];
    if (mark_[x] == 0) added += std::min<Count>(kept, degree_[x]);
  }
}

void DynamicGraph::Compact(int num_threads, Count* recount_bound) {
  if (killed_.empty()) return;
  const bool track = recount_bound != nullptr;
  const size_t num_lanes = static_cast<size_t>(std::max(1, num_threads));
  if (lanes_.size() < num_lanes) lanes_.resize(num_lanes);
  for (Lane& lane : lanes_) {
    lane.dirty.clear();
    lane.work = 0;
    lane.removed = 0;
    lane.added = 0;
  }
  // A loop over lists of `work` total length forks only when it is long.
  const auto threads_for = [num_threads](uint64_t work) {
    return work >= kParallelCutoff ? num_threads : 1;
  };
  uint64_t killed_work = 0;
  for (const VertexId k : killed_) killed_work += degree_[k];

  // C_rcnt's terms can change only on edges with a marked (killed or dirty)
  // end, and before the filter every entry of a marked list was alive at
  // the previous Compact(), so it was counted then. Each such edge is
  // priced once, where both its degrees are at hand:
  //   * killed U end: in the gather, before any degree moves (removed);
  //   * dirty U end, marked V end: AddDirtyPairTerms before the filter
  //     (removed) and after it (added, the dirty-dirty survivors);
  //   * a dirty end and a clean one: in the dirty end's filter, since a
  //     clean degree never moves (removed with the old degree, added with
  //     the new).
  // A clean live vertex cannot neighbour a killed one, so that is all.
  const int filter_threads =
      threads_for(GatherDirty(threads_for(killed_work), track));
  if (track) AddDirtyPairTerms(filter_threads, &Lane::removed);
  for (const VertexId k : killed_) degree_[k] = 0;
  ParallelForWithContext(
      dirty_.size(), filter_threads, lanes_,
      [this, track](Lane& lane, size_t i) {
        FilterList(dirty_[i], track, lane.removed, lane.added);
      },
      /*chunk=*/16);
  if (track) {
    AddDirtyPairTerms(filter_threads, &Lane::added);
    Count removed = 0;
    Count added = 0;
    for (const Lane& lane : lanes_) {
      removed += lane.removed;
      added += lane.added;
    }
    *recount_bound = *recount_bound - removed + added;
  }

  for (const VertexId k : killed_) mark_[k] = 0;
  for (const VertexId w : dirty_) mark_[w] = 0;
  killed_.clear();
  dirty_.clear();
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

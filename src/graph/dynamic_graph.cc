#include "graph/dynamic_graph.h"

#include <algorithm>
#include <atomic>

#include "util/parallel.h"

namespace receipt {

namespace {

// Sums fn(w) over `ids`, inline or on `num_threads` threads. Per-vertex work
// is a list walk and list lengths are skewed, hence the small dynamic grain.
// Integer sums are exact in any order, so the result does not depend on the
// thread count or the schedule.
template <typename Fn>
Count SumOver(const std::vector<VertexId>& ids, int num_threads,
              bool parallel, Fn&& fn) {
  Count total = 0;
  if (!parallel) {
    for (const VertexId w : ids) total += fn(w);
    return total;
  }
#pragma omp parallel for schedule(dynamic, 16) num_threads(num_threads) \
    reduction(+ : total)
  for (size_t i = 0; i < ids.size(); ++i) total += fn(ids[i]);
  return total;
}

}  // namespace

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

uint64_t DynamicGraph::GatherDirty(int num_threads, bool parallel,
                                   Count* killed_terms) {
  dirty_.clear();
  const bool track = killed_terms != nullptr;
  uint64_t work = 0;
  Count terms = 0;
  if (!parallel) {
    for (const VertexId k : killed_) {
      const uint64_t dk = degree_[k];
      const bool count = track && IsU(k);
      for (const VertexId x : Neighbors(k)) {
        if (count) terms += std::min<Count>(dk, degree_[x]);
        if (alive_[x] == 0 || mark_[x] != 0) continue;
        mark_[x] = 1;
        dirty_.push_back(x);
        work += degree_[x];
      }
    }
  } else {
    // Threads claim each neighbour by an atomic exchange on its mark, so
    // every dirty vertex lands in exactly one per-thread buffer. The
    // buffers' order depends on the schedule; nothing downstream does.
    gather_.resize(static_cast<size_t>(num_threads));
#pragma omp parallel num_threads(num_threads) reduction(+ : work, terms)
    {
      std::vector<VertexId>& local = gather_[static_cast<size_t>(ThreadId())];
      local.clear();
#pragma omp for schedule(dynamic, 16)
      for (size_t i = 0; i < killed_.size(); ++i) {
        const VertexId k = killed_[i];
        const uint64_t dk = degree_[k];
        const bool count = track && IsU(k);
        for (const VertexId x : Neighbors(k)) {
          if (count) terms += std::min<Count>(dk, degree_[x]);
          if (alive_[x] == 0) continue;
          std::atomic_ref<uint8_t> mark(mark_[x]);
          if (mark.load(std::memory_order_relaxed) != 0 ||
              mark.exchange(1, std::memory_order_relaxed) != 0) {
            continue;
          }
          local.push_back(x);
          work += degree_[x];
        }
      }
    }
    for (const std::vector<VertexId>& local : gather_) {
      dirty_.insert(dirty_.end(), local.begin(), local.end());
    }
  }
  if (track) *killed_terms += terms;
  return work;
}

Count DynamicGraph::DirtyPairTerms(int num_threads, bool parallel) const {
  return SumOver(dirty_, num_threads, parallel, [this](VertexId w) {
    Count total = 0;
    if (!IsU(w)) return total;
    const uint64_t dw = degree_[w];
    for (const VertexId x : Neighbors(w)) {
      if (mark_[x] != 0) total += std::min<Count>(dw, degree_[x]);
    }
    return total;
  });
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
  const bool threaded = num_threads > 1;
  const bool track = recount_bound != nullptr;
  uint64_t killed_work = 0;
  for (const VertexId k : killed_) killed_work += degree_[k];

  // C_rcnt's terms can change only on edges with a marked (killed or dirty)
  // end, and before the filter every entry of a marked list was alive at
  // the previous Compact(), so it was counted then. Each such edge is
  // priced once, where both its degrees are at hand:
  //   * killed U end: in the gather, before any degree moves (removed);
  //   * dirty U end, marked V end: DirtyPairTerms before the filter
  //     (removed) and after it (added, the dirty-dirty survivors);
  //   * a dirty end and a clean one: in the dirty end's filter, since a
  //     clean degree never moves (removed with the old degree, added with
  //     the new).
  // A clean live vertex cannot neighbour a killed one, so that is all.
  Count removed = 0;
  Count added = 0;
  const uint64_t dirty_work =
      GatherDirty(num_threads, threaded && killed_work >= kParallelCutoff,
                  track ? &removed : nullptr);
  const bool parallel = threaded && dirty_work >= kParallelCutoff;
  if (track) removed += DirtyPairTerms(num_threads, parallel);
  for (const VertexId k : killed_) degree_[k] = 0;
  if (parallel) {
#pragma omp parallel for schedule(dynamic, 16) num_threads(num_threads) \
    reduction(+ : removed, added)
    for (size_t i = 0; i < dirty_.size(); ++i) {
      FilterList(dirty_[i], track, removed, added);
    }
  } else {
    for (const VertexId w : dirty_) FilterList(w, track, removed, added);
  }
  if (track) {
    added += DirtyPairTerms(num_threads, parallel);
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

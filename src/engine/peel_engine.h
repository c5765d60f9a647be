#ifndef RECEIPT_ENGINE_PEEL_ENGINE_H_
#define RECEIPT_ENGINE_PEEL_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/counting.h"
#include "engine/extraction.h"
#include "engine/graph_maintenance.h"
#include "engine/min_heap.h"
#include "engine/peel_control.h"
#include "engine/peel_kernels.h"
#include "engine/range_result.h"
#include "engine/support_index.h"
#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "graph/dynamic_graph.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/types.h"
#include "wing/edge_topology.h"

namespace receipt::engine {

// ===========================================================================
// Peel-entity adapters: the two instantiations of the engine's entity
// parameter. Both expose the same surface — liveness, support access, the
// peel life-cycle, and an atomic peel-one kernel — so RangeDecomposer below
// is written once for vertices (tip) and edges (wing).
// ===========================================================================

/// Vertex (tip) peel entity: U vertices of a DynamicGraph, support updated
/// by the Alg. 2 wedge-aggregation kernel.
class TipPeelGraph {
 public:
  using Id = VertexId;
  /// Vertex peeling supports HUC re-counts (the per-vertex counting kernel
  /// re-derives supports); edge peeling does not.
  static constexpr bool kSupportsRecount = true;

  TipPeelGraph(DynamicGraph& live, std::span<Count> support)
      : live_(&live), support_(support) {}

  uint64_t num_entities() const { return live_->num_u(); }
  /// Workspace shape this entity's kernels need (dense wedge array over
  /// the combined vertex space; no mark array).
  VertexId WorkspaceVertexCapacity() const { return live_->num_vertices(); }
  VertexId WorkspaceMarkCapacity() const { return 0; }
  bool IsAlive(Id u) const { return live_->IsAlive(u); }
  Count Support(Id u) const { return support_[u]; }
  /// Vertices die before their updates flow (Lemma 2, case 3).
  void BeginPeel(Id u) { live_->Kill(u); }
  void EndRound(std::span<const Id>) {}

  template <typename OnUpdated>
  uint64_t PeelOneAtomic(Id u, Count floor, PeelWorkspace& ws,
                         OnUpdated&& on_updated) {
    return PeelVertex</*kAtomic=*/true>(*live_, u, floor, support_, ws,
                                        std::forward<OnUpdated>(on_updated));
  }

  /// HUC re-count (§4.1): re-derives every live support by a fresh parallel
  /// U-side count, clamped from below at the range bound `lo` (Lemma 1).
  /// Returns wedges traversed. `scratch.count_buffer` holds the fresh
  /// counts.
  uint64_t RecountSupports(Count lo, WorkspacePool& pool, int num_threads,
                           PeelWorkspace& scratch) {
    const VertexId n = live_->num_vertices();
    if (scratch.count_buffer.size() < n) {
      scratch.count_buffer.resize(n);
      ++scratch.growths;
    }
    std::span<Count> fresh(scratch.count_buffer.data(), n);
    const uint64_t wedges = CountVertexButterflies(
        *live_, pool.Team(num_threads), fresh, CountScope::kUOnly);
    const VertexId num_u = live_->num_u();
    ParallelFor(num_u, num_threads, [&](size_t u) {
      if (live_->IsAlive(static_cast<VertexId>(u))) {
        support_[u] = std::max(lo, fresh[u]);
      }
    });
    return wedges;
  }

 private:
  DynamicGraph* live_;
  std::span<Count> support_;
};

/// Edge (wing) peel entity: the edges of an EdgeTopology with an explicit
/// EdgeState array, support updated one butterfly at a time by the §7
/// enumeration kernel under the minimum-id priority rule. Each round's
/// peeled edges leave the live runs when the round ends.
class WingPeelGraph {
 public:
  using Id = EdgeOffset;
  static constexpr bool kSupportsRecount = false;

  WingPeelGraph(EdgeTopology& topo, std::vector<uint8_t>& state,
                std::span<Count> support, int num_threads)
      : topo_(&topo),
        state_(&state),
        support_(support),
        num_threads_(num_threads),
        dirty_flag_(topo.num_vertices(), 0) {}

  uint64_t num_entities() const { return topo_->num_edges(); }
  /// Workspace shape this entity's kernels need (a mark array over the
  /// combined vertex space only).
  VertexId WorkspaceVertexCapacity() const { return 0; }
  VertexId WorkspaceMarkCapacity() const { return topo_->num_vertices(); }
  bool IsAlive(Id e) const { return (*state_)[e] == kEdgeAlive; }
  Count Support(Id e) const { return support_[e]; }
  /// Edges stay enumerable while peeling (all four edges of a butterfly
  /// must be not-dead for it to count); the priority rule arbitrates.
  void BeginPeel(Id e) { (*state_)[e] = kEdgePeeling; }
  /// Kills the round's edges and compacts them out of the runs of their
  /// ends, each run once, so later rounds never walk them.
  void EndRound(std::span<const Id> round) {
    std::vector<uint8_t>& state = *state_;
    dirty_.clear();
    for (const Id e : round) {
      state[e] = kEdgeDead;
      for (const VertexId w : {topo_->source[e], topo_->target[e]}) {
        if (dirty_flag_[w] == 0) {
          dirty_flag_[w] = 1;
          dirty_.push_back(w);
        }
      }
    }
    ParallelFor(dirty_.size(), num_threads_, [&](size_t i) {
      const VertexId w = dirty_[i];
      topo_->CompactRun(
          w, [&state](uint32_t x) { return state[x] == kEdgeDead; });
      dirty_flag_[w] = 0;
    });
  }

  template <typename OnUpdated>
  uint64_t PeelOneAtomic(Id e, Count floor, PeelWorkspace& ws,
                         OnUpdated&& on_updated) {
    return PeelEdgeButterflies(*topo_, *state_, e, ws, [&](EdgeOffset x) {
      on_updated(x, AtomicClampedSub(&support_[x], Count{1}, floor));
    });
  }

 private:
  EdgeTopology* topo_;
  std::vector<uint8_t>* state_;
  std::span<Count> support_;
  int num_threads_;
  /// Vertices whose runs the ending round must compact, deduplicated.
  std::vector<uint8_t> dirty_flag_;
  std::vector<VertexId> dirty_;
};

// ===========================================================================
// RangeDecomposer: the coarse-grained decomposition engine (Alg. 3),
// templated on the peel entity. One implementation serves RECEIPT CD
// (TipPeelGraph, with HUC + DGM through GraphMaintenance) and the RECEIPT-W
// coarse step (WingPeelGraph, maintenance-free).
//
// Per range the engine finds the bound, peels the range, then patches
// ⊲⊳init. The per-range work is output-sensitive through the pool's
// SupportIndex: range bounds come from a histogram prefix walk plus a
// bounded one-bucket refine, ⊲⊳init is written once up front and then
// patched at each boundary from the entities whose support actually
// changed, and each range's first active set is collected from the
// histogram's member lists.
//
// Later active sets are frontier-driven: peel kernels emit newly-in-range
// entities into per-thread workspace frontier buffers, deduplicated through
// the pool's per-round epoch bitmap, and the next active set is the merge
// of those buffers, sorted by id. Every entity alive and in range at the
// start of round r+1 must have received its below-`hi` update during round
// r (all of round r's active set was peeled), so the merged frontier holds
// the whole next active set, and a round's build costs its frontier, not
// n. Each entity enters a frontier at most once: it is alive and in range
// when it does, so the next round peels it.
// ===========================================================================

/// Wall time above which a coarse round emits an "engine.cd.round" span
/// (arg: the round's predicted wedges). Typical rounds take 10 us - 2 ms;
/// a round past this threshold is an outlier worth attributing, and rare
/// enough not to flood the span ring.
inline constexpr uint64_t kSlowRoundSpanNs = 10'000'000;

/// Settings of the coarse decomposition engine, bundled so drivers forward
/// their option structs in one hop.
struct CoarseOptions {
  /// P: subsets with caller-chosen bounds; one unbounded subset absorbs
  /// the rest once exhausted (§3.1.1).
  uint32_t max_partitions = 1;
  int num_threads = 1;
  /// Span sink (null by default): the decomposer emits one
  /// "engine.cd.range" span per produced subset and one "engine.cd.round"
  /// span per round slower than kSlowRoundSpanNs.
  obs::TraceContext trace;
};

/// Builds CoarseOptions from any driver option struct exposing the shared
/// coarse settings (TipOptions, ReceiptWingOptions) — the single copy site,
/// so a new setting added here cannot be silently dropped by one driver.
template <typename DriverOptions>
CoarseOptions MakeCoarseOptions(const DriverOptions& options,
                                uint32_t max_partitions) {
  CoarseOptions coarse;
  coarse.max_partitions = max_partitions;
  coarse.num_threads = options.num_threads;
  coarse.trace = options.trace;
  return coarse;
}

template <typename PeelGraph>
class RangeDecomposer {
 public:
  using Id = typename PeelGraph::Id;

  /// `static_cost[e]` is the static peel-cost proxy of entity e (wedge
  /// count for vertices, the V-side mark + walk for edges) driving range
  /// determination and predicted_costs. For vertices it is also HUC's
  /// first filter: a round re-counts only if its static cost exceeds
  /// C_rcnt and then its live wedge count does too.
  /// `maintenance` may be nullptr (coarse wing); it must outlive Run().
  /// `control` (optional) is polled between rounds: on cancellation Run
  /// returns the ranges peeled so far, and every completed round reports
  /// its peel count as progress.
  RangeDecomposer(PeelGraph& peel_graph, std::span<const Count> static_cost,
                  const CoarseOptions& options, WorkspacePool& pool,
                  GraphMaintenance* maintenance,
                  PeelControl* control = nullptr)
      : pg_(&peel_graph),
        static_cost_(static_cost),
        opts_(options),
        max_partitions_(std::max(1u, options.max_partitions)),
        num_threads_(options.num_threads),
        pool_(&pool),
        index_(&pool.support_index()),
        maintenance_(maintenance),
        control_(control) {}

  /// Peels every entity, producing subsets with non-overlapping peel-number
  /// ranges. Contributes wedges_cd, sync_rounds, peel_iterations,
  /// huc_recounts, frontier/scan round counters, the SupportIndex counters
  /// (bound_walk_buckets, histogram_refines, init_patch_elements,
  /// index_rebuild_elements) and num_subsets to `*stats` (dgm_compactions
  /// are read off the GraphMaintenance by the caller).
  RangeResult<Id> Run(PeelStats* stats) {
    // Enforce the pool contract (one workspace per thread, kernels' dense
    // arrays sized) rather than assuming the caller Prepared; idempotent
    // and free when the pool is already warm.
    pool_->Prepare(std::max(1, num_threads_), pg_->WorkspaceVertexCapacity(),
                   pg_->WorkspaceMarkCapacity());
    const uint64_t n = pg_->num_entities();
    RangeResult<Id> result;
    result.subset_of.assign(n, 0);
    result.init_support.assign(n, 0);
    result.bounds = {0};

    epochs_ = &pool_->frontier_epochs();
    epochs_->Reset(n);

    full_patch_needed_ = false;

    // ⊲⊳init is written exactly once up front (every entity is alive
    // before the first range) and patched at later boundaries from the
    // delta tracking — no per-range O(n) snapshot.
    ParallelFor(n, num_threads_, [&](size_t e) {
      if (pg_->IsAlive(static_cast<Id>(e))) {
        result.init_support[e] = pg_->Support(static_cast<Id>(e));
      }
    });
    RebuildIndex(n, stats);

    const Count total_static = ParallelReduceSum<Count>(
        n, num_threads_, [&](size_t e) { return static_cost_[e]; },
        &reduce_scratch_);
    double remaining_cost = static_cast<double>(total_static);
    double target = remaining_cost / max_partitions_;  // Alg. 3 line 4
    // Exact-integer twin of remaining_cost, kept so the final unbounded
    // subset's predicted cost (= all remaining mass) is bit-identical
    // across thread counts (the double track feeds the adaptive target
    // only).
    Count remaining_static = total_static;

    uint64_t alive_count = n;
    while (alive_count > 0) {
      if (control_ != nullptr && control_->Cancelled()) break;
      const uint32_t subset_index =
          static_cast<uint32_t>(result.subsets.size());
      // One span per produced subset: boundary patch + bound determination
      // + the whole range peel. A span for every round would flood the
      // flight recorder on large graphs, so rounds only emit one when they
      // are slow (kSlowRoundSpanNs); per-range matches the paper's unit of
      // coarse work.
      obs::ScopedSpan range_span(opts_.trace, "engine.cd.range",
                                 subset_index);

      // Bring ⊲⊳init up to the state "after all lower subsets were fully
      // peeled" (Alg. 3 lines 6-7): a delta patch over the entities whose
      // support changed during the previous range (a full snapshot after a
      // HUC re-count).
      PatchBoundary(n, result, stats);
      index_->OpenRangeEpoch();

      // Upper bound of this range (Alg. 3 line 8). Once the user-specified
      // P is exhausted, the final subset takes everything left (§3.1.1).
      Count hi = kInvalidCount;
      // Cost-model prediction for this range (see RangeResult docs): an
      // exact integer read off the histogram walk. The final unbounded
      // subset's prediction is everything left.
      Count predicted = remaining_static;
      result.subsets.emplace_back();

      // A histogram prefix walk plus a one-bucket refine, cost proportional
      // to buckets walked, not n.
      if (subset_index < max_partitions_) {
        hi = index_->FindBound(
            RangeCostNeed(std::max(1.0, target)),
            [&](uint64_t e) { return pg_->Support(static_cast<Id>(e)); },
            stats, &predicted);
      }
      alive_count = PeelRange(subset_index, result.bounds.back(), hi,
                              alive_count, n, result, stats);
      result.predicted_costs.push_back(predicted);

      // Two-way adaptive range determination (§3.1.1): recompute the target
      // from what remains and damp it by this subset's overshoot. The
      // per-subset cost fold is a deterministic parallel reduction (integer
      // partial sums folded in block order, so the target — and therefore
      // every later bound — is independent of thread count).
      const std::vector<Id>& subset = result.subsets.back();
      const Count subset_static = ParallelReduceSum<Count>(
          subset.size(), num_threads_,
          [&](size_t i) { return static_cost_[subset[i]]; },
          &reduce_scratch_);
      const double subset_cost = static_cast<double>(subset_static);
      remaining_cost -= subset_cost;
      remaining_static -= std::min(remaining_static, subset_static);
      if (subset_index + 1 < max_partitions_) {
        const double base =
            remaining_cost /
            static_cast<double>(max_partitions_ - subset_index - 1);
        const double scale =
            subset_cost > 0.0 ? std::min(1.0, target / subset_cost) : 1.0;
        target = std::max(1.0, base * scale);
      }
      result.bounds.push_back(hi);
    }

    stats->num_subsets = result.subsets.size();
    return result;
  }

 private:
  /// Full SupportIndex rebuild (up front, and after every HUC re-count —
  /// a re-count rewrites all alive supports without emitting deltas).
  void RebuildIndex(uint64_t n, PeelStats* stats) {
    index_->Rebuild(
        n, [&](uint64_t e) { return pg_->IsAlive(static_cast<Id>(e)); },
        [&](uint64_t e) { return pg_->Support(static_cast<Id>(e)); },
        static_cost_, num_threads_);
    stats->index_rebuild_elements += n;
  }

  /// Applies the previous range's deferred bucket moves and patches
  /// ⊲⊳init, touching only changed entities — or the whole entity space
  /// when a re-count invalidated the tracking.
  void PatchBoundary(uint64_t n, RangeResult<Id>& result, PeelStats* stats) {
    if (full_patch_needed_) {
      ParallelFor(n, num_threads_, [&](size_t e) {
        if (pg_->IsAlive(static_cast<Id>(e))) {
          result.init_support[e] = pg_->Support(static_cast<Id>(e));
        }
      });
      stats->init_patch_elements += n;
      // The snapshot covers ⊲⊳init, but deltas that arrived between the
      // mid-range rebuild and this boundary still hold deferred bucket
      // moves — apply them or the histogram would serve stale bounds.
      for (const uint64_t x : index_->changed()) {
        ++stats->init_patch_elements;
        if (!index_->Contains(x)) continue;
        index_->MoveTo(x, pg_->Support(static_cast<Id>(x)), static_cost_[x]);
      }
      index_->ClearChanged();
      full_patch_needed_ = false;
      return;
    }
    for (const uint64_t x : index_->changed()) {
      ++stats->init_patch_elements;
      // Entities peeled during the previous range keep the ⊲⊳init of their
      // own subset's start: a boundary snapshot never rewrites dead
      // entities either.
      if (!index_->Contains(x)) continue;
      const Count s = pg_->Support(static_cast<Id>(x));
      result.init_support[x] = s;
      index_->MoveTo(x, s, static_cost_[x]);
    }
    index_->ClearChanged();
  }

  /// Index-built full rebuild: collects the in-range entities from the
  /// histogram's member lists — cost proportional to the range population,
  /// not n — then sorts by id (member-list order is schedule-dependent;
  /// the sorted set is the same at every thread count). Only called while
  /// bucket membership is reconciled: the initial build of each range
  /// (right after the boundary patch) and the post-re-count rebuild (right
  /// after RebuildIndex).
  void RebuildByIndex(Count hi, PeelStats* stats) {
    active_.clear();
    index_->ForEachAliveBelow(
        hi, [&](uint64_t e) { return pg_->Support(static_cast<Id>(e)); },
        stats, [&](uint64_t e) { active_.push_back(static_cast<Id>(e)); });
    std::sort(active_.begin(), active_.end());
    ++stats->index_build_rounds;
  }

  /// Peels every alive entity with support in [lo, hi) — the round loop of
  /// Alg. 3 lines 9-14 for one range — appending them in peel order to
  /// `result.subsets.back()`. Returns the updated alive count.
  uint64_t PeelRange(uint32_t subset_index, Count lo, Count hi,
                     uint64_t alive_count, uint64_t n, RangeResult<Id>& result,
                     PeelStats* stats) {
    std::vector<Id>& subset = result.subsets.back();

    // First active set of the range: necessarily a full rebuild (Alg. 3
    // line 9) — entities whose support already lay inside the new, wider
    // range were never updated, so no frontier knows them. The histogram
    // was just reconciled at the boundary, so the set comes from its
    // member lists instead of an O(n) scan.
    RebuildByIndex(hi, stats);

    while (!active_.empty()) {
      ++stats->sync_rounds;
      ++stats->peel_iterations;
      const uint64_t round_start_ns =
          opts_.trace.enabled() ? obs::TraceRecorder::NowNs() : 0;

      // Assign and claim the whole round first so no update flows
      // between two entities peeled together (Lemma 2 / priority rule).
      // The same pass sums the round's predicted work for the HUC check.
      Count round_cost = 0;
      for (const Id e : active_) {
        result.subset_of[e] = subset_index;
        pg_->BeginPeel(e);
        round_cost += static_cost_[e];
        index_->Remove(static_cast<uint64_t>(e), static_cost_[e]);
      }
      alive_count -= active_.size();
      subset.insert(subset.end(), active_.begin(), active_.end());

      bool recounted = false;
      if constexpr (PeelGraph::kSupportsRecount) {
        if (maintenance_ != nullptr && alive_count > 0 &&
            maintenance_->ShouldRecount(round_cost, active_)) {
          // Hybrid Update Computation (§4.1): this round's peeling would
          // traverse more live wedges than a full re-count.
          ++stats->huc_recounts;
          maintenance_->BeginRecount();
          stats->wedges_cd +=
              pg_->RecountSupports(lo, *pool_, num_threads_, pool_->Get(0));
          recounted = true;
          // The re-count rewrote every alive support behind the delta
          // tracking's back: rebuild the histogram now (later rounds still
          // Remove() against it) and fall back to one full ⊲⊳init
          // snapshot at the next boundary.
          RebuildIndex(n, stats);
          full_patch_needed_ = true;
        }
      }

      if (!recounted) {
        epochs_->NextRound();
        const uint64_t wedges_before = pool_->TotalWedges();
        // A grain of one entity: most rounds hold only a few entities and
        // per-entity wedge work is heavily skewed, so a coarser grain would
        // leave all but one thread waiting at the barrier.
        ParallelForWithContext(
            active_.size(), num_threads_, pool_->Team(num_threads_),
            [&](PeelWorkspace& ws, size_t i) {
              ws.wedges_traversed += pg_->PeelOneAtomic(
                  active_[i], lo, ws, [&](Id x, Count new_support) {
                    const uint64_t xid = static_cast<uint64_t>(x);
                    if (index_->ClaimDelta(xid)) {
                      ws.support_delta.push_back(xid);
                    }
                    if (new_support < hi && epochs_->Claim(xid)) {
                      ws.frontier.push_back(xid);
                    }
                  });
            },
            /*chunk=*/1);
        const uint64_t round_wedges = pool_->TotalWedges() - wedges_before;
        stats->wedges_cd += round_wedges;
        // Dynamic Graph Maintenance (§4.2): compact adjacency once ≥ m
        // wedges were traversed since the last compaction.
        if (maintenance_ != nullptr) maintenance_->OnPeelWedges(round_wedges);
        // Drain the per-thread frontier and support-delta buffers every
        // round (the workspace invariant). Bucket moves stay deferred until
        // the next range boundary — the only point the histogram is
        // queried.
        merged_frontier_.clear();
        for (PeelWorkspace& ws : pool_->Team(num_threads_)) {
          for (const uint64_t x : ws.frontier) {
            merged_frontier_.push_back(static_cast<Id>(x));
          }
          ws.frontier.clear();
          index_->AppendChanged(ws.support_delta);
          ws.support_delta.clear();
        }
      }

      pg_->EndRound(active_);
      if (control_ != nullptr) {
        control_->ReportPeeled(active_.size());
        if (control_->Cancelled()) break;
      }

      // Next active set (Alg. 3 line 14): the merged frontier (see class
      // comment), or the index after a re-count.
      if (recounted) {
        // A re-count invalidated the frontier tracking but just rebuilt
        // the index, so its membership is exact: rebuild from member lists.
        RebuildByIndex(hi, stats);
      } else if (merged_frontier_.empty()) {
        // No entity dropped into range this round, so the range is
        // exhausted — a terminal check, not a build.
        active_.clear();
      } else {
        // Per-thread buffers arrive in arbitrary interleavings, so sort by
        // id: subset member order is then independent of thread count.
        std::sort(merged_frontier_.begin(), merged_frontier_.end());
        stats->frontier_build_elements += merged_frontier_.size();
        ++stats->frontier_rounds;
        active_.clear();
        for (const Id e : merged_frontier_) {
          if (pg_->IsAlive(e) && pg_->Support(e) < hi) active_.push_back(e);
        }
      }
      if (opts_.trace.enabled()) {
        const uint64_t round_ns = obs::TraceRecorder::NowNs() - round_start_ns;
        if (round_ns >= kSlowRoundSpanNs) {
          opts_.trace.Emit("engine.cd.round", round_start_ns, round_ns,
                           round_cost);
        }
      }
    }
    return alive_count;
  }

  PeelGraph* pg_;
  std::span<const Count> static_cost_;
  CoarseOptions opts_;
  uint32_t max_partitions_;
  int num_threads_;
  WorkspacePool* pool_;
  SupportIndex* index_;
  GraphMaintenance* maintenance_;
  PeelControl* control_;
  FrontierEpochs* epochs_ = nullptr;
  bool full_patch_needed_ = false;

  // Round-loop scratch, reused across ranges within one Run().
  std::vector<Count> reduce_scratch_;  // ParallelReduceSum scratch
  std::vector<Id> active_;
  std::vector<Id> merged_frontier_;
};

// ===========================================================================
// Sequential bottom-up drivers: the fine-grained / baseline peeling loops.
// ===========================================================================

/// Configuration for SequentialTipPeel.
struct SequentialPeelConfig {
  MinExtraction min_extraction = MinExtraction::kDAryHeap;
  bool use_huc = false;
  bool use_dgm = false;
  /// θ starts here — 0 for whole-graph BUP, the subset's range lower bound
  /// θ(i) for a RECEIPT FD task.
  Count floor0 = 0;
  /// Break as soon as the last entity pops (FD tasks) instead of draining
  /// the extractor through the final — traversal-free by then — update
  /// (BUP keeps the seed semantics of counting those wedges).
  bool stop_when_peeled = false;
  /// Optional cancellation/progress hook, polled once per peeled entity.
  PeelControl* control = nullptr;
};

/// Counters reported by a sequential peel; the caller maps them onto the
/// right PeelStats fields (wedges_other for BUP, wedges_fd for FD).
struct SequentialPeelOutcome {
  uint64_t wedges = 0;
  uint64_t iterations = 0;
  uint64_t huc_recounts = 0;
  uint64_t dgm_compactions = 0;
};

/// Sequential bottom-up tip peeling of U vertices [0, num_peel) of `live` —
/// the unified kernel behind BupDecompose (whole graph, no optimizations)
/// and every RECEIPT FD task (induced subgraph, HUC + DGM, Alg. 4 lines
/// 5-10). `graph` is the static structure `live` was built from (used for
/// the HUC cost model); `support` spans live.num_vertices() and must be
/// initialized by the caller. `assign(u, θ)` fires once per peeled vertex.
template <typename AssignTheta>
SequentialPeelOutcome SequentialTipPeel(const BipartiteGraph& graph,
                                        DynamicGraph& live,
                                        std::span<Count> support,
                                        VertexId num_peel,
                                        const SequentialPeelConfig& config,
                                        PeelWorkspace& ws,
                                        AssignTheta&& assign) {
  SequentialPeelOutcome out;
  ws.EnsureVertexCapacity(live.num_vertices());
  GraphMaintenance maintenance(live, config.use_huc, config.use_dgm,
                               graph.num_edges());

  std::span<Count> fresh;
  if (config.use_huc) {
    // HUC bookkeeping: the external contribution of each vertex
    // (butterflies shared with peers outside `live`) is fixed during
    // peeling and equals ⊲⊳init − (butterflies inside live) — §4.1.
    const VertexId n = live.num_vertices();
    if (ws.count_buffer.size() < n) {
      ws.count_buffer.resize(n);
      ++ws.growths;
    }
    fresh = std::span<Count>(ws.count_buffer.data(), n);
    out.wedges += CountVertexButterflies(live, {&ws, 1}, fresh,
                                         CountScope::kUOnly);
    ws.external.assign(num_peel, 0);
    ws.static_cost.assign(num_peel, 0);
    for (VertexId lu = 0; lu < num_peel; ++lu) {
      ws.external[lu] =
          support[lu] >= fresh[lu] ? support[lu] - fresh[lu] : 0;
      ws.static_cost[lu] = graph.WedgeCount(lu);
    }
  }

  // Workspace-resident extraction: re-seeded per task, backing stores
  // reused across every FD partition this thread processes.
  MinExtractor& extractor = ws.extractor;
  extractor.Reset(config.min_extraction, support, num_peel);

  VertexId alive_count = num_peel;
  Count theta = config.floor0;
  while (auto entry = extractor.PopMin(support)) {
    if (config.control != nullptr && config.control->Cancelled()) break;
    const auto [key, u] = *entry;
    theta = std::max(theta, key);
    assign(u, theta);
    if (config.control != nullptr) config.control->ReportPeeled(1);
    live.Kill(u);
    ++out.iterations;
    --alive_count;
    if (config.stop_when_peeled && alive_count == 0) break;

    if (config.use_huc &&
        maintenance.ShouldRecount(ws.static_cost[u], {&u, 1})) {
      // Re-counting this (small, induced) graph is cheaper than exploring
      // the peeled vertex's live wedges.
      ++out.huc_recounts;
      maintenance.BeginRecount();
      out.wedges += CountVertexButterflies(live, {&ws, 1}, fresh,
                                           CountScope::kUOnly);
      for (VertexId lu = 0; lu < num_peel; ++lu) {
        if (!live.IsAlive(lu)) continue;
        support[lu] = std::max(theta, fresh[lu] + ws.external[lu]);
      }
      extractor.Rebuild(support);
    } else {
      const uint64_t wedges = PeelVertex</*kAtomic=*/false>(
          live, u, theta, support, ws,
          [&extractor](VertexId u2, Count new_support) {
            extractor.NotifyUpdate(u2, new_support);
          });
      out.wedges += wedges;
      maintenance.OnPeelWedges(wedges);
    }
  }

  out.dgm_compactions = maintenance.compactions();
  return out;
}

/// Counters reported by a sequential wing peel.
struct WingPeelOutcome {
  uint64_t wedges = 0;
  uint64_t iterations = 0;
};

/// Sequential bottom-up wing (edge) peeling — the unified kernel behind
/// WingDecompose (whole graph) and every RECEIPT-W fine task (environment
/// of a subset). The heap must be pre-seeded with the peelable edges;
/// `updatable(x)` filters both extraction and updates (environment edges of
/// higher subsets are enumerated but never updated); `assign(e, θ)` fires
/// once per peeled edge, which then leaves the runs of `topo`. `remaining`
/// = number of peelable edges (0 = peel until the heap runs dry).
/// `control` (optional) is polled per iteration.
template <typename Updatable, typename OnAssign>
WingPeelOutcome SequentialWingPeel(EdgeTopology& topo,
                                   std::vector<uint8_t>& state,
                                   std::span<Count> support,
                                   LazyMinHeap<4>& heap, uint64_t remaining,
                                   Count floor0, PeelWorkspace& ws,
                                   Updatable&& updatable, OnAssign&& assign,
                                   PeelControl* control = nullptr) {
  WingPeelOutcome out;
  ws.EnsureMarkCapacity(topo.num_vertices());
  Count theta = floor0;
  const auto peelable = [&](VertexId k) {
    return state[k] == kEdgeAlive && updatable(static_cast<EdgeOffset>(k));
  };
  while (auto entry = heap.PopValid(support, peelable)) {
    if (control != nullptr && control->Cancelled()) break;
    const auto [key, k32] = *entry;
    const EdgeOffset k = k32;
    theta = std::max(theta, key);
    assign(k, theta);
    if (control != nullptr) control->ReportPeeled(1);
    state[k] = kEdgePeeling;  // sole peeling edge: priority rule is trivial
    ++out.iterations;
    out.wedges += PeelEdgeButterflies(topo, state, k, ws, [&](EdgeOffset x) {
      if (!updatable(x)) return;  // higher subsets are never updated
      const Count cur = support[x];
      const Count next = cur > theta + 1 ? cur - 1 : theta;
      if (next != cur) {
        support[x] = next;
        heap.Push(next, static_cast<VertexId>(x));
      }
    });
    state[k] = kEdgeDead;
    topo.RemoveEdge(k);
    if (remaining > 0 && --remaining == 0) break;
  }
  return out;
}

/// The fine step's dynamic task allocation (Alg. 4 lines 2-4), shared by
/// RECEIPT FD and RECEIPT-W: each idle thread takes the next of
/// `num_tasks` tasks, in index order, and runs `task(k, ws, local_stats)`
/// on its own workspace of `pool` (already Prepare()d for `num_threads`).
/// Threads meet only at the final join, where their stats fold into
/// `stats`. Once `control` is cancelled, no further task starts.
template <typename Task>
void RunFineTasks(uint32_t num_tasks, int num_threads, WorkspacePool& pool,
                  PeelControl* control, PeelStats* stats, Task&& task) {
  struct Lane {
    PeelWorkspace* ws = nullptr;
    PeelStats stats;
  };
  std::vector<Lane> lanes(static_cast<size_t>(std::max(1, num_threads)));
  for (size_t t = 0; t < lanes.size(); ++t) {
    lanes[t].ws = &pool.Get(static_cast<int>(t));
  }
  ParallelForWithContext(
      num_tasks, num_threads, lanes,
      [&](Lane& lane, size_t k) {
        if (control != nullptr && control->Cancelled()) return;
        task(static_cast<uint32_t>(k), *lane.ws, &lane.stats);
      },
      /*chunk=*/1);
  for (const Lane& lane : lanes) stats->Merge(lane.stats);
}

// ===========================================================================
// Round peeling (ParB): one concurrent batch with atomic clamped updates.
// ===========================================================================

/// Peels `peel_set` (whose members the caller already killed and assigned)
/// concurrently. `on_updated(ws, u2, new_support)` runs on the worker
/// thread that produced the update, with that thread's workspace — typical
/// use buffers (u2, new_support) into ws.updates for post-barrier
/// re-bucketing. Returns wedges traversed.
template <typename OnUpdated>
uint64_t ParallelPeelRound(const DynamicGraph& live,
                           std::span<const VertexId> peel_set, Count floor,
                           std::span<Count> support, WorkspacePool& pool,
                           int num_threads, OnUpdated&& on_updated) {
  pool.Prepare(std::max(1, num_threads), live.num_vertices());
  const uint64_t wedges_before = pool.TotalWedges();
  ParallelForWithContext(
      peel_set.size(), num_threads, pool.Team(num_threads),
      [&](PeelWorkspace& ws, size_t i) {
        ws.wedges_traversed += PeelVertex</*kAtomic=*/true>(
            live, peel_set[i], floor, support, ws,
            [&](VertexId u2, Count new_support) {
              on_updated(ws, u2, new_support);
            });
      });
  return pool.TotalWedges() - wedges_before;
}

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_PEEL_ENGINE_H_

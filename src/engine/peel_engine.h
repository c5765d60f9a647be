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
  /// the combined vertex space; no V-side mark array).
  VertexId WorkspaceVertexCapacity() const { return live_->num_vertices(); }
  VertexId WorkspaceMarkCapacity() const { return 0; }
  bool IsAlive(Id u) const { return live_->IsAlive(u); }
  Count Support(Id u) const { return support_[u]; }
  /// Direct support write for the incremental replay path, which advances
  /// survivors to their recorded boundary values instead of re-traversing
  /// the wedges that would have decremented them.
  void SetSupport(Id u, Count v) { support_[u] = v; }
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
    const uint64_t wedges = CountVertexButterflies(*live_, pool, num_threads,
                                                   fresh, CountScope::kUOnly);
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

/// Edge (wing) peel entity: U-side CSR slots of a BipartiteGraph with an
/// explicit EdgeState array, support updated one butterfly at a time by the
/// §7 enumeration kernel under the minimum-id priority rule.
class WingPeelGraph {
 public:
  using Id = EdgeOffset;
  static constexpr bool kSupportsRecount = false;

  WingPeelGraph(const BipartiteGraph& graph, const EdgeTopology& topo,
                std::vector<uint8_t>& state, std::span<Count> support)
      : graph_(&graph), topo_(&topo), state_(&state), support_(support) {}

  uint64_t num_entities() const { return graph_->num_edges(); }
  /// Workspace shape this entity's kernels need (V-side mark array only).
  VertexId WorkspaceVertexCapacity() const { return 0; }
  VertexId WorkspaceMarkCapacity() const { return graph_->num_v(); }
  bool IsAlive(Id e) const { return (*state_)[e] == kEdgeAlive; }
  Count Support(Id e) const { return support_[e]; }
  /// Direct support write for the incremental replay path (see
  /// TipPeelGraph::SetSupport).
  void SetSupport(Id e, Count v) { support_[e] = v; }
  /// Edges stay enumerable while peeling (all four edges of a butterfly
  /// must be not-dead for it to count); the priority rule arbitrates.
  void BeginPeel(Id e) { (*state_)[e] = kEdgePeeling; }
  void EndRound(std::span<const Id> round) {
    for (const Id e : round) (*state_)[e] = kEdgeDead;
  }

  template <typename OnUpdated>
  uint64_t PeelOneAtomic(Id e, Count floor, PeelWorkspace& ws,
                         OnUpdated&& on_updated) {
    return PeelEdgeButterflies(
        *graph_, *topo_, *state_, e, ws, [&](EdgeOffset x) {
          on_updated(x, AtomicClampedSub(&support_[x], Count{1}, floor));
        });
  }

 private:
  const BipartiteGraph* graph_;
  const EdgeTopology* topo_;
  std::vector<uint8_t>* state_;
  std::span<Count> support_;
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
// Later active sets are frontier-driven (Julienne-style direction
// optimization): peel kernels emit newly-in-range entities into per-thread
// workspace frontier buffers, deduplicated through the pool's per-round
// epoch bitmap, and the next active set is the order-preserving merge of
// those buffers — unless the frontier holds at least kScanDensity of the
// surviving population, in which case one full parallel scan is cheaper.
// Both directions produce the same active set: every entity alive and in
// range at the start of round r+1 must have received its below-`hi` update
// during round r (all of round r's active set was peeled), so the claimed
// set equals the scan set, and sorting the merge restores the scan's
// ascending-id order. The rule depends only on set sizes, so the direction
// counters are deterministic across runs and thread counts.
// ===========================================================================

/// Wall time above which a coarse round emits an "engine.cd.round" span
/// (arg: the round's predicted wedges). Typical rounds take 10 us - 2 ms;
/// a round past this threshold is an outlier worth attributing, and rare
/// enough not to flood the span ring.
inline constexpr uint64_t kSlowRoundSpanNs = 10'000'000;

/// Per-range record of the ⊲⊳init boundary patches a coarse run applied:
/// `ranges[i]` lists (entity, support at the close of range i) for every
/// entity whose support changed while range i peeled and that survived to
/// the i+1 boundary. An incremental re-run replays these entries to advance
/// its shadow of the recorded run's support trajectory without re-traversing
/// any wedges. `valid` drops to false when the recording run cannot vouch
/// for completeness: a HUC re-count rewrites every alive support behind the
/// delta tracking.
struct CoarsePatchLog {
  std::vector<std::vector<std::pair<uint64_t, Count>>> ranges;
  bool valid = true;

  void Reset() {
    ranges.clear();
    valid = true;
  }
  uint64_t TotalEntries() const {
    uint64_t total = 0;
    for (const auto& range : ranges) total += range.size();
    return total;
  }
};

/// Baseline a RunIncremental call folds an edge-update batch against. All
/// spans are in the *current* entity-id space — the caller remaps wing edge
/// ids across graph rebuilds before handing the baseline over.
template <typename Id>
struct IncrementalSeed {
  /// The sealed coarse result of the previous run on the pre-batch graph.
  const RangeResult<Id>* sealed = nullptr;
  /// The boundary patch log that run recorded (must be `valid`).
  const CoarsePatchLog* log = nullptr;
  /// `old_support[e]`: the support entity e had when the sealed run
  /// started, or kInvalidCount for entities that did not exist then.
  std::span<const Count> old_support;
  /// `structural_dirty[e]` must be 1 for every entity that can belong to a
  /// butterfly the update batch created or destroyed (a conservative
  /// superset is fine; completeness is what soundness rests on).
  std::span<const uint8_t> structural_dirty;
  /// Optional per-sealed-subset override (1 = never reuse): the wing
  /// caller marks subsets that contained since-deleted edges, whose
  /// remapped member lists are no longer the sealed peel order.
  std::span<const uint8_t> force_dirty_subset;
  /// Once more than this fraction of the sealed range count has been
  /// re-peeled, the rest of the run stops attempting reuse and proceeds as
  /// a plain full recompute (results are bit-identical either way; the
  /// clean checks just stop paying for themselves).
  double dirty_fraction_limit = 0.5;
};

/// What an incremental run did: how many ranges it reused verbatim vs
/// re-peeled, and per-produced-subset dirty flags the caller uses to re-run
/// the fine phase selectively (0 = the sealed subset's fine results are
/// still exact).
struct IncrementalOutcome {
  /// True when no reuse was possible (unusable baseline) or the
  /// dirty-fraction limit tripped mid-run.
  bool fell_back_full = false;
  uint64_t ranges_reused = 0;
  uint64_t ranges_repeeled = 0;
  std::vector<uint8_t> subset_dirty;
};

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
  /// count for vertices, mark + scan cost for edges) driving both range
  /// determination and — for vertices — the HUC cost model.
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
    return RunImpl(nullptr, nullptr, stats);
  }

  /// Incremental coarse pass: produces exactly the RangeResult a full
  /// Run() on the current graph would — bit-identical by construction,
  /// because every range is either re-peeled through the same machinery or
  /// *proven* to reproduce the sealed baseline before being replayed from
  /// it. While the run tracks the sealed trajectory it adopts the sealed
  /// bounds outright (any partition yields the same numbers); a range is
  /// then replayed only when (b) every sealed member is alive with support
  /// equal to the sealed run's trajectory and out of reach of the update
  /// batch (not structurally dirty), (c) no entity whose support diverged
  /// from that trajectory starts the range below the bound, and (d) no
  /// survivor the sealed range dragged down would cross the bound at its
  /// divergence-shifted boundary value (supports only decrease within a
  /// range, so that value is the in-range minimum). Replay then kills the
  /// sealed members, advances survivors to their recorded boundary values
  /// shifted by their current divergence, and copies the sealed peel order
  /// verbatim — no wedge is traversed. With an unusable baseline this
  /// degenerates to Run() (outcome reports it).
  RangeResult<Id> RunIncremental(const IncrementalSeed<Id>& seed,
                                 IncrementalOutcome* outcome,
                                 PeelStats* stats) {
    return RunImpl(&seed, outcome, stats);
  }

  /// Optional boundary-patch recorder: when set, the run records each
  /// range's surviving support changes into `log` (Reset() up front) so
  /// the *next* incremental run can replay this run's trajectory. The log
  /// is marked invalid when completeness cannot be guaranteed (a HUC
  /// re-count). `log` must outlive the run.
  void set_patch_log(CoarsePatchLog* log) { record_log_ = log; }

 private:
  RangeResult<Id> RunImpl(const IncrementalSeed<Id>* seed,
                          IncrementalOutcome* outcome, PeelStats* stats) {
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
    if (record_log_ != nullptr) record_log_->Reset();

    // An incremental baseline is usable only when the sealed run's patch
    // log is complete and the baseline spans line up with the current
    // entity space; otherwise this is a plain full run (which, with a
    // recorder set, seeds the next seal instead).
    incremental_ = seed != nullptr &&
                   seed->sealed != nullptr && seed->log != nullptr &&
                   seed->log->valid && !seed->sealed->subsets.empty() &&
                   seed->old_support.size() == n &&
                   seed->dirty_fraction_limit > 0.0;
    desynced_ = !incremental_;
    uint64_t repeeled_ranges = 0;
    uint64_t dirty_budget = 0;
    if (incremental_) {
      dirty_budget = static_cast<uint64_t>(
          seed->dirty_fraction_limit *
          static_cast<double>(seed->sealed->subsets.size()));
      // Shadow of the sealed run's support trajectory, plus the candidate
      // set of entities whose current support may diverge from it (kept a
      // superset: re-peeled ranges add everything they or the sealed run
      // touched).
      shadow_.assign(seed->old_support.begin(), seed->old_support.end());
      divergent_bit_.assign(n, 0);
      divergent_list_.clear();
      for (uint64_t e = 0; e < n; ++e) {
        if (pg_->IsAlive(static_cast<Id>(e)) &&
            pg_->Support(static_cast<Id>(e)) != shadow_[e]) {
          divergent_bit_[e] = 1;
          divergent_list_.push_back(e);
        }
      }
    }
    if (outcome != nullptr) {
      *outcome = IncrementalOutcome{};
      outcome->fell_back_full = !incremental_;
    }
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

      // While the run tracks the sealed trajectory, every range ADOPTS the
      // sealed bound — for replay and for dirty re-peels alike. The
      // tip/wing numbers are partition-independent (RECEIPT's exactness
      // theorem), so the sealed run's bounds are always a valid partition
      // choice; correctness of a replay rests solely on the clean-range
      // proof. Recomputing bounds and demanding they coincide would make
      // reuse collapse whenever the batch shifts total static cost (which
      // every batch does), and re-peeling a dirty range under a fresh
      // bound would desync the trajectory even when the range reproduces
      // the sealed membership exactly.
      bool replayed = false;
      bool bound_from_sealed = false;
      if (incremental_ && !desynced_ &&
          subset_index < seed->sealed->subsets.size()) {
        hi = seed->sealed->bounds[subset_index + 1];
        bound_from_sealed = true;
        if (subset_index < seed->sealed->predicted_costs.size()) {
          predicted = seed->sealed->predicted_costs[subset_index];
        }
        const bool force_dirty =
            subset_index < seed->force_dirty_subset.size() &&
            seed->force_dirty_subset[subset_index];
        if (!force_dirty && SealedRangeMatches(*seed, subset_index, hi)) {
          alive_count = ReplayRange(*seed, subset_index, alive_count, result,
                                    stats);
          replayed = true;
          ++stats->incremental_ranges_reused;
          if (outcome != nullptr) ++outcome->ranges_reused;
        }
      }

      if (!replayed) {
        // A histogram prefix walk plus a one-bucket refine, cost
        // proportional to buckets walked, not n. Skipped while the sealed
        // bound stands in (replay and tracked re-peels), which is itself
        // part of the incremental savings.
        if (!bound_from_sealed && subset_index < max_partitions_) {
          hi = index_->FindBound(
              RangeCostNeed(std::max(1.0, target)),
              [&](uint64_t e) { return pg_->Support(static_cast<Id>(e)); },
              stats, &predicted);
        }
        alive_count =
            PeelRange(subset_index, result.bounds.back(), hi, alive_count, n,
                      result, stats);
        if (incremental_) {
          ++stats->incremental_ranges_repeeled;
          if (outcome != nullptr) ++outcome->ranges_repeeled;
          if (!desynced_) {
            AdvanceShadowAfterRepeel(*seed, subset_index);
            if (++repeeled_ranges > dirty_budget) {
              // Past the dirty-fraction limit: stop paying for clean
              // checks and finish as a full recompute (same results).
              desynced_ = true;
              if (outcome != nullptr) outcome->fell_back_full = true;
            }
          }
        }
      }
      result.predicted_costs.push_back(predicted);
      if (outcome != nullptr) {
        outcome->subset_dirty.push_back(replayed ? 0 : 1);
      }

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
    // Patch-log recording: this boundary's changed-survivor list is the
    // record of the range that just finished. Replayed ranges write their
    // own entry (leaving the changed list empty), so only record when the
    // log is exactly one entry behind the produced subsets.
    std::vector<std::pair<uint64_t, Count>>* rec = nullptr;
    if (record_log_ != nullptr && !result.subsets.empty() &&
        record_log_->ranges.size() + 1 == result.subsets.size()) {
      record_log_->ranges.emplace_back();
      rec = &record_log_->ranges.back();
    }
    if (full_patch_needed_) {
      // A mid-range re-count rewrote every alive support behind the delta
      // tracking, so the changed list no longer names every moved entity —
      // any log being recorded is unusable from here on.
      if (record_log_ != nullptr) record_log_->valid = false;
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
      if (rec != nullptr) rec->emplace_back(x, s);
    }
    index_->ClearChanged();
  }

  /// Clean-range proof for the incremental pass, evaluated against the
  /// SEALED bound hi (which the caller adopts on success — any partition
  /// choice yields the same numbers, so no fresh bound is computed for a
  /// clean range). Read-only: cost is the sealed subset size plus the
  /// divergence candidate set plus the sealed range's patch-log entry.
  bool SealedRangeMatches(const IncrementalSeed<Id>& seed, uint32_t i,
                          Count hi) const {
    const std::vector<Id>& members = seed.sealed->subsets[i];
    const bool final_sealed = i + 1 == seed.sealed->subsets.size();
    // A non-final sealed range without a patch-log entry cannot advance
    // the shadow trajectory — never reuse it.
    if (!final_sealed && i >= seed.log->ranges.size()) return false;
    // (b) Every sealed member must be reproducible: alive, support equal
    // to the sealed trajectory, and out of the update batch's structural
    // reach (a changed butterfly always has all its peelable entities
    // marked dirty, so non-dirty members receive exactly the sealed run's
    // in-range decrements).
    for (const Id m : members) {
      const uint64_t mid = static_cast<uint64_t>(m);
      if (mid >= shadow_.size() || !pg_->IsAlive(m)) return false;
      if (pg_->Support(m) != shadow_[mid]) return false;
      if (mid < seed.structural_dirty.size() && seed.structural_dirty[mid]) {
        return false;
      }
    }
    // (c) No divergent entity may start the range below the bound — it
    // would join a peel the sealed subset never held.
    for (const uint64_t e : divergent_list_) {
      if (!pg_->IsAlive(static_cast<Id>(e))) continue;
      const Count cur = pg_->Support(static_cast<Id>(e));
      if (cur == shadow_[e]) continue;
      if (cur < hi) return false;
    }
    // (d) Nothing the range's peeling drags down may cross the bound
    // mid-range either: a dragged survivor ends the range at its sealed
    // boundary value shifted by its current divergence, and supports only
    // decrease within a range, so that value is the in-range minimum.
    if (!final_sealed) {
      for (const auto& [s, v] : seed.log->ranges[i]) {
        if (s >= shadow_.size() || !pg_->IsAlive(static_cast<Id>(s))) {
          return false;
        }
        const int64_t drift =
            static_cast<int64_t>(pg_->Support(static_cast<Id>(s))) -
            static_cast<int64_t>(shadow_[s]);
        if (static_cast<int64_t>(v) + drift < static_cast<int64_t>(hi)) {
          return false;
        }
      }
    }
    return true;
  }

  /// Replays sealed range i verbatim: kills the sealed members in their
  /// recorded peel order, advances dragged survivors to their recorded
  /// boundary values shifted by their current divergence, and keeps the
  /// histogram, ⊲⊳init, and any log being recorded exactly as a real peel
  /// of the range would have left them. No wedge is traversed.
  uint64_t ReplayRange(const IncrementalSeed<Id>& seed, uint32_t i,
                       uint64_t alive_count, RangeResult<Id>& result,
                       PeelStats* stats) {
    const std::vector<Id>& members = seed.sealed->subsets[i];
    std::vector<Id>& subset = result.subsets.back();
    subset = members;
    for (const Id m : members) {
      result.subset_of[m] = i;
      pg_->BeginPeel(m);
      index_->Remove(static_cast<uint64_t>(m), static_cost_[m]);
    }
    pg_->EndRound(subset);
    alive_count -= members.size();
    stats->incremental_replay_elements += members.size();

    if (i < seed.log->ranges.size()) {
      std::vector<std::pair<uint64_t, Count>>* rec = nullptr;
      if (record_log_ != nullptr && record_log_->ranges.size() == i) {
        record_log_->ranges.emplace_back();
        rec = &record_log_->ranges.back();
      }
      stats->incremental_replay_elements += seed.log->ranges[i].size();
      for (const auto& [s, v] : seed.log->ranges[i]) {
        const Id sid = static_cast<Id>(s);
        const Count drifted = static_cast<Count>(
            static_cast<int64_t>(v) +
            static_cast<int64_t>(pg_->Support(sid)) -
            static_cast<int64_t>(shadow_[s]));
        pg_->SetSupport(sid, drifted);
        shadow_[s] = v;
        result.init_support[s] = drifted;
        index_->MoveTo(s, drifted, static_cost_[s]);
        if (rec != nullptr) rec->emplace_back(s, drifted);
      }
    }
    return alive_count;
  }

  /// After re-peeling range i for real: advance the shadow through the
  /// sealed run's range i and widen the divergence candidate set by
  /// everything either run touched. The produced subset need NOT match the
  /// sealed one for later ranges to stay provable: a sealed member that
  /// died early fails its home range's liveness check (b), and a sealed
  /// member the re-peel left alive gets its shadow poisoned below so it
  /// reads as permanently divergent — condition (c) then blocks replay of
  /// exactly the ranges its support would join. Desync is only forced when
  /// the survivor trajectory itself is unrecorded (no patch-log entry) or
  /// the run has outgrown the sealed baseline.
  void AdvanceShadowAfterRepeel(const IncrementalSeed<Id>& seed,
                                uint32_t i) {
    for (const uint64_t x : index_->changed()) MarkDivergent(x);
    if (i >= seed.sealed->subsets.size()) {
      desynced_ = true;
      return;
    }
    if (i < seed.log->ranges.size()) {
      for (const auto& [s, v] : seed.log->ranges[i]) {
        shadow_[s] = v;
        MarkDivergent(s);
      }
    } else if (i + 1 < seed.sealed->subsets.size()) {
      desynced_ = true;  // shadow can no longer be advanced
      return;
    }
    // Sealed members of this range are dead on the sealed trajectory from
    // here on. Any the re-peel left alive have no trajectory to compare
    // against — poison their shadow with a value no live support can take,
    // so they stay divergent until a re-peel consumes them.
    for (const Id m : seed.sealed->subsets[i]) {
      if (pg_->IsAlive(m)) {
        shadow_[static_cast<uint64_t>(m)] = kInvalidCount;
        MarkDivergent(static_cast<uint64_t>(m));
      }
    }
  }

  void MarkDivergent(uint64_t e) {
    if (e < divergent_bit_.size() && !divergent_bit_[e]) {
      divergent_bit_[e] = 1;
      divergent_list_.push_back(e);
    }
  }

  /// Frontier density (merged frontier / alive entities) at and above which
  /// the next active set is rebuilt by one contiguous parallel scan instead
  /// of sorting the frontier: dense rounds, where the scan beats
  /// sparse-list handling.
  static constexpr double kScanDensity = 0.2;

  /// True when the next active set should be rebuilt by a full scan instead
  /// of a frontier merge. A set property, not a schedule property, so the
  /// direction taken is the same across runs and thread counts.
  static bool UseScan(uint64_t frontier_size, uint64_t alive) {
    return static_cast<double>(frontier_size) >=
           kScanDensity * static_cast<double>(alive);
  }

  /// Full-scan active-set rebuild for dense frontiers: the order-preserving
  /// parallel filter over all n entities for the alive ones below `hi`.
  void RebuildByScan(uint64_t n, Count hi, PeelStats* stats) {
    ParallelFilterInto(
        n, num_threads_, active_,
        [&](size_t e) {
          return pg_->IsAlive(static_cast<Id>(e)) &&
                 pg_->Support(static_cast<Id>(e)) < hi;
        },
        [](size_t e) { return static_cast<Id>(e); }, &filter_offsets_);
    ++stats->scan_rounds;
    stats->scan_build_elements += n;
    stats->active_scan_elements += n;
  }

  /// Index-built full rebuild: collects the in-range entities from the
  /// histogram's member lists — cost proportional to the range population,
  /// not n — then sorts by id to restore ascending order (member-list
  /// order is schedule-dependent; the sorted set is the one a scan would
  /// produce). Only called while bucket membership is reconciled: the
  /// initial build of each range (right after the boundary patch) and the
  /// post-re-count rebuild (right after RebuildIndex).
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
            maintenance_->ShouldRecount(round_cost)) {
          // Hybrid Update Computation (§4.1): this round's peeling would
          // traverse more wedges than a full re-count.
          ++stats->huc_recounts;
          maintenance_->BeginRecount();
          stats->wedges_cd +=
              pg_->RecountSupports(lo, *pool_, num_threads_, pool_->Get(0));
          maintenance_->EndRecount();
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
            active_.size(), num_threads_, pool_->workspaces(),
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
        // round (the workspace invariant), whichever direction rebuilds
        // the active set. Bucket moves stay deferred until the next range
        // boundary — the only point the histogram is queried.
        merged_frontier_.clear();
        for (PeelWorkspace& ws : pool_->workspaces()) {
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

      // Next active set (Alg. 3 line 14): merge the frontier when it is
      // sparse; re-scan when it is dense. Identical output either way (see
      // class comment).
      if (recounted) {
        // A re-count invalidated the frontier tracking but just rebuilt
        // the index, so its membership is exact: rebuild from member lists.
        RebuildByIndex(hi, stats);
      } else if (merged_frontier_.empty()) {
        // No entity dropped into range this round, so the range is
        // exhausted (the claimed set equals the scan set) — a terminal
        // check, not a rebuild; counts toward neither direction.
        active_.clear();
      } else if (UseScan(merged_frontier_.size(), alive_count)) {
        RebuildByScan(n, hi, stats);
      } else {
        // Order-preserving merge: per-thread buffers arrive in arbitrary
        // interleavings, so sort by id to restore the scan order (this
        // also makes subset member order independent of thread count).
        std::sort(merged_frontier_.begin(), merged_frontier_.end());
        stats->frontier_build_elements += merged_frontier_.size();
        stats->active_scan_elements += merged_frontier_.size();
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
  // Incremental-pass state (see RunIncremental): the recorder for the next
  // seal, the sealed trajectory shadow, and the divergence candidate set.
  CoarsePatchLog* record_log_ = nullptr;
  bool incremental_ = false;
  bool desynced_ = false;
  std::vector<Count> shadow_;
  std::vector<uint8_t> divergent_bit_;
  std::vector<uint64_t> divergent_list_;

  // Round-loop scratch, reused across ranges within one Run().
  std::vector<size_t> filter_offsets_;  // ParallelFilterInto scratch
  std::vector<Count> reduce_scratch_;   // ParallelReduceSum scratch
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
    out.wedges +=
        CountVertexButterfliesSeq(live, ws, fresh, CountScope::kUOnly);
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

    if (config.use_huc && maintenance.ShouldRecount(ws.static_cost[u])) {
      // Re-counting this (small, induced) graph is cheaper than exploring
      // the peeled vertex's wedges.
      ++out.huc_recounts;
      maintenance.BeginRecount();
      out.wedges +=
          CountVertexButterfliesSeq(live, ws, fresh, CountScope::kUOnly);
      for (VertexId lu = 0; lu < num_peel; ++lu) {
        if (!live.IsAlive(lu)) continue;
        support[lu] = std::max(theta, fresh[lu] + ws.external[lu]);
      }
      extractor.Rebuild(support);
      maintenance.EndRecount();
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
/// graph of a subset). The heap must be pre-seeded with the peelable edges;
/// `updatable(x)` filters both extraction and updates (environment edges of
/// higher subsets are enumerated but never updated); `assign(e, θ)` fires
/// once per peeled edge. `remaining` = number of peelable edges (0 = peel
/// until the heap runs dry). `control` (optional) is polled per iteration.
template <typename Updatable, typename OnAssign>
WingPeelOutcome SequentialWingPeel(const BipartiteGraph& graph,
                                   const EdgeTopology& topo,
                                   std::vector<uint8_t>& state,
                                   std::span<Count> support,
                                   LazyMinHeap<4>& heap, uint64_t remaining,
                                   Count floor0, PeelWorkspace& ws,
                                   Updatable&& updatable, OnAssign&& assign,
                                   PeelControl* control = nullptr) {
  WingPeelOutcome out;
  ws.EnsureMarkCapacity(graph.num_v());
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
    out.wedges += PeelEdgeButterflies(
        graph, topo, state, k, ws, [&](EdgeOffset x) {
          if (!updatable(x)) return;  // higher subsets are never updated
          const Count cur = support[x];
          const Count next = cur > theta + 1 ? cur - 1 : theta;
          if (next != cur) {
            support[x] = next;
            heap.Push(next, static_cast<VertexId>(x));
          }
        });
    state[k] = kEdgeDead;
    if (remaining > 0 && --remaining == 0) break;
  }
  return out;
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
      peel_set.size(), num_threads, pool.workspaces(),
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

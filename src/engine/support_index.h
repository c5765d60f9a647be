#ifndef RECEIPT_ENGINE_SUPPORT_INDEX_H_
#define RECEIPT_ENGINE_SUPPORT_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/frontier_epochs.h"
#include "util/parallel.h"
#include "util/relaxed_counter.h"
#include "util/stats.h"
#include "util/types.h"

namespace receipt::engine {

/// A cost-weighted support histogram over the alive peel entities of one
/// coarse decomposition, kept current from the same per-thread update
/// deltas the peel kernels already emit. It makes the two remaining
/// input-sized per-range costs of Alg. 3 output-sensitive:
///
///  * findHi (range-bound determination) becomes a prefix walk over
///    bucketed cost sums — a coarse summary level (kGroupSize buckets per
///    group) first, then the leaf buckets of one group, then a bounded
///    refine over the members of the single bucket the cumulative cost
///    crossed in — instead of an O(n) alive filter plus an O(n log n) sort.
///  * ⊲⊳init snapshots become boundary patches: the decomposer writes
///    init_support once up front and then, at each range boundary, touches
///    only the entities whose support changed since the previous boundary
///    (the index's changed list, deduplicated per range by an epoch
///    bitmap).
///
/// Structure: supports are bucketed by a power-of-two width chosen so at
/// most kMaxBuckets leaf buckets exist (width 1 — exact — whenever the
/// maximum support is below kMaxBuckets). Each leaf bucket carries an alive
/// count, a cost sum, and an intrusive doubly-linked member list (fixed
/// next/prev arrays over entity ids), so moving an entity between buckets
/// is O(1) and refining a bucket is O(members). Bucket moves are deferred:
/// per-round deltas only accumulate into the changed list, and membership
/// is reconciled once per range boundary — the only time the histogram is
/// queried — so an entity updated in many rounds of one range costs one
/// move, not many.
///
/// All mutators are single-threaded (the decomposer calls them between
/// round barriers); only ClaimDelta is invoked concurrently from the peel
/// kernels. Results are schedule-independent: member-list order varies with
/// thread interleaving, but FindBound computes the crossing from bucket
/// sums and member multisets, never from list order.
///
/// The index is WorkspacePool-resident: Rebuild() reuses every backing
/// store, so steady-state decompositions allocate nothing (growth telemetry
/// folded into WorkspacePool::TotalGrowths).
class SupportIndex {
 public:
  static constexpr uint32_t kNoBucket = static_cast<uint32_t>(-1);
  static constexpr uint64_t kNil = static_cast<uint64_t>(-1);
  /// Leaf buckets per summary group.
  static constexpr uint32_t kGroupSize = 64;
  /// Leaf-bucket budget: bounds both memory and the worst-case prefix-walk
  /// length (kMaxBuckets / kGroupSize groups + kGroupSize leaves).
  static constexpr uint64_t kMaxBuckets = 1ull << 16;

  /// Full (re)build over the current alive entities: once up front per
  /// decomposition, and again whenever a HUC re-count rewrites supports
  /// behind the delta tracking's back. Resets the delta epoch bitmap and
  /// clears the changed list. O(n + buckets), allocation-free once warm.
  /// The max-support pass parallelizes; the link loop is sequential by
  /// nature (intrusive-list construction) — acceptable because rebuilds
  /// are rare and each re-count that triggers one already traverses far
  /// more than n wedges.
  template <typename AliveFn, typename SupportFn>
  void Rebuild(uint64_t n, AliveFn&& alive, SupportFn&& support,
               std::span<const Count> cost, int num_threads = 1) {
    const Count max_support = ParallelReduceMax<Count>(
        n, num_threads,
        [&](size_t e) { return alive(e) ? support(e) : Count{0}; });
    PrepareStorage(n, max_support);
    for (uint64_t e = 0; e < n; ++e) {
      if (alive(e)) {
        Link(e, BucketOf(support(e)), cost[e]);
        ++alive_;
      } else {
        entity_bucket_[e] = kNoBucket;
      }
    }
    delta_epochs_.Reset(n);
    // Open a claim window immediately: epoch 0 is the stamps' initial
    // value, i.e. "already claimed" — without this, every delta between a
    // mid-range rebuild (HUC re-count) and the next boundary would be
    // silently dropped.
    delta_epochs_.NextRound();
    changed_.clear();
  }

  /// Concurrent-safe claim from the peel kernels' update callbacks: true
  /// exactly once per entity per range epoch. Claimed ids are buffered
  /// per-thread and folded into the changed list after the round barrier.
  bool ClaimDelta(uint64_t id) { return delta_epochs_.Claim(id); }

  /// Opens a new delta-dedup window (call once per range, right after the
  /// previous range's changes were applied).
  void OpenRangeEpoch() { delta_epochs_.NextRound(); }

  /// Folds one thread's drained delta buffer into the changed list.
  void AppendChanged(const std::vector<uint64_t>& ids) {
    const size_t capacity_before = changed_.capacity();
    changed_.insert(changed_.end(), ids.begin(), ids.end());
    if (changed_.capacity() != capacity_before) ++growths_;
  }

  /// Entities whose support changed since the last ClearChanged() (each at
  /// most once, via the range epoch). Order is thread-schedule dependent;
  /// consumers must be order-independent.
  const std::vector<uint64_t>& changed() const { return changed_; }
  void ClearChanged() { changed_.clear(); }

  /// True while `e` is resident (alive as far as the index knows).
  bool Contains(uint64_t e) const { return entity_bucket_[e] != kNoBucket; }

  /// Removes a peeled entity. Safe against deferred moves: the entity's
  /// recorded bucket and static cost are exact even when its support
  /// changed since the last reconciliation.
  void Remove(uint64_t e, Count cost) {
    const uint32_t b = entity_bucket_[e];
    if (b == kNoBucket) return;
    Unlink(e, b, cost);
    entity_bucket_[e] = kNoBucket;
    --alive_;
  }

  /// Reconciles one changed entity with its current support (no-op when it
  /// stays in its bucket).
  void MoveTo(uint64_t e, Count support, Count cost) {
    const uint32_t b_old = entity_bucket_[e];
    const uint32_t b_new = BucketOf(support);
    if (b_old == b_new) return;
    Unlink(e, b_old, cost);
    Link(e, b_new, cost);
  }

  /// findHi over the histogram: the smallest support s whose cumulative
  /// alive cost reaches `need`, returned as the exclusive bound s + 1 —
  /// exactly FindRangeBound's semantics (max support + 1 when the total
  /// mass is below `need`, kInvalidCount when nothing is alive). `supports`
  /// resolves exact member supports during the bounded refine.
  /// Contributes bound_walk_buckets and histogram_refines to `*stats`.
  ///
  /// When `predicted_cost` is non-null it receives the cost mass of the
  /// range the bound opens — Σ cost over alive entities with support < the
  /// returned bound, an exact integer read off the bucket cost sums the
  /// walk accumulates anyway. This is the per-range peel-cost prediction
  /// RECEIPT FD's LPT pop order consumes.
  template <typename SupportFn>
  Count FindBound(Count need, SupportFn&& supports, PeelStats* stats,
                  Count* predicted_cost = nullptr) {
    if (predicted_cost != nullptr) *predicted_cost = 0;
    if (alive_ == 0) return kInvalidCount;
    uint64_t acc = 0;
    uint64_t walked = 0;
    const uint64_t num_groups = (num_buckets_ + kGroupSize - 1) / kGroupSize;
    uint64_t crossing = num_buckets_;
    for (uint64_t g = 0; g < num_groups; ++g) {
      ++walked;
      if (acc + group_cost_[g] >= need) {
        const uint64_t hi =
            std::min<uint64_t>((g + 1) * kGroupSize, num_buckets_);
        for (uint64_t b = g * kGroupSize; b < hi; ++b) {
          ++walked;
          if (acc + bucket_cost_[b] >= need) {
            crossing = b;
            break;
          }
          acc += bucket_cost_[b];
        }
        break;
      }
      acc += group_cost_[g];
    }
    stats->bound_walk_buckets += walked;

    if (crossing == num_buckets_) {
      // Total mass below the target: the range bound is the maximum alive
      // support + 1. Find the highest populated bucket and refine for its
      // maximum member.
      uint64_t top = num_buckets_;
      for (uint64_t b = num_buckets_; b-- > 0;) {
        ++stats->bound_walk_buckets;
        if (bucket_count_[b] > 0) {
          top = b;
          break;
        }
      }
      Count max_support = 0;
      for (uint64_t e = head_[top]; e != kNil; e = next_[e]) {
        ++stats->histogram_refines;
        max_support = std::max(max_support, supports(e));
      }
      // Total mass consumed: the range swallows every alive entity.
      if (predicted_cost != nullptr) *predicted_cost = acc;
      return max_support + 1;
    }

    // Bounded refine: resolve the exact crossing support among the members
    // of the single crossing bucket (the residual mass need − acc is ≤ the
    // bucket's cost sum by construction). Width-1 buckets skip the walk.
    const Count lo = static_cast<Count>(crossing) << shift_;
    if (shift_ == 0) {
      ++stats->histogram_refines;
      // Width-1 crossing bucket: every member's support is exactly lo <
      // the bound lo + 1, so the whole bucket belongs to the range.
      if (predicted_cost != nullptr) {
        *predicted_cost = acc + bucket_cost_[crossing];
      }
      return lo + 1;
    }
    const size_t refine_capacity_before = refine_scratch_.capacity();
    refine_scratch_.clear();
    for (uint64_t e = head_[crossing]; e != kNil; e = next_[e]) {
      refine_scratch_.emplace_back(supports(e), cost_of_(e));
    }
    if (refine_scratch_.capacity() != refine_capacity_before) ++growths_;
    stats->histogram_refines += refine_scratch_.size();
    const Count bound = RefineCrossing(need - acc);
    if (predicted_cost != nullptr) {
      // Crossing-bucket members below the refined bound complete the
      // prediction (the partitioning above preserved the multiset).
      Count partial = acc;
      for (const auto& [s, c] : refine_scratch_) {
        if (s < bound) partial += c;
      }
      *predicted_cost = partial;
    }
    return bound;
  }

  /// Visits every resident entity with support < `hi` (all of them when
  /// `hi` is kInvalidCount) by walking the member lists of the buckets at
  /// or below the crossing bucket — the index-built replacement for the
  /// O(n) initial active-set scan of each range. Only valid while bucket
  /// membership is reconciled (right after a boundary patch or a full
  /// rebuild — the two places RangeDecomposer calls it); deferred
  /// mid-range moves would under-collect. Visit order is list order
  /// (schedule-dependent): callers must sort. Examined members and walked
  /// buckets are charged to index_active_elements.
  template <typename SupportFn, typename Visit>
  void ForEachAliveBelow(Count hi, SupportFn&& supports, PeelStats* stats,
                         Visit&& visit) const {
    if (alive_ == 0 || hi == 0 || num_buckets_ == 0) return;
    uint64_t examined = 0;
    const uint32_t crossing = BucketOf(hi - 1);
    // Group-at-a-time walk: an empty summary group skips kGroupSize
    // buckets for one probe, so the walk scales with populated groups and
    // members, not with the support range.
    for (uint32_t g = 0; g <= crossing / kGroupSize; ++g) {
      ++examined;
      if (group_count_[g] == 0) continue;
      const uint32_t lo_b = g * kGroupSize;
      const uint32_t hi_b =
          std::min<uint32_t>(lo_b + kGroupSize - 1, crossing);
      for (uint32_t b = lo_b; b <= hi_b; ++b) {
        if (bucket_count_[b] == 0) continue;
        ++examined;
        if (b < crossing) {
          for (uint64_t e = head_[b]; e != kNil; e = next_[e]) {
            ++examined;
            visit(e);
          }
        } else {
          // Crossing bucket: members may straddle the bound; filter.
          for (uint64_t e = head_[b]; e != kNil; e = next_[e]) {
            ++examined;
            if (supports(e) < hi) visit(e);
          }
        }
      }
    }
    stats->index_active_elements += examined;
  }

  uint64_t alive() const { return alive_; }
  uint64_t num_buckets() const { return num_buckets_; }
  /// Backing-store growth events (allocation telemetry for
  /// WorkspacePool::TotalGrowths and the no-growth-after-warmup tests).
  uint64_t growths() const { return growths_ + delta_epochs_.growths(); }

 private:
  uint32_t BucketOf(Count support) const {
    const uint64_t b = static_cast<uint64_t>(support >> shift_);
    return static_cast<uint32_t>(b < num_buckets_ ? b : num_buckets_ - 1);
  }

  void Link(uint64_t e, uint32_t b, Count cost) {
    next_[e] = head_[b];
    prev_[e] = kNil;
    if (head_[b] != kNil) prev_[head_[b]] = e;
    head_[b] = e;
    entity_bucket_[e] = b;
    ++bucket_count_[b];
    bucket_cost_[b] += cost;
    group_cost_[b / kGroupSize] += cost;
    ++group_count_[b / kGroupSize];
    cost_cache_[e] = cost;
  }

  void Unlink(uint64_t e, uint32_t b, Count cost) {
    if (prev_[e] != kNil) {
      next_[prev_[e]] = next_[e];
    } else {
      head_[b] = next_[e];
    }
    if (next_[e] != kNil) prev_[next_[e]] = prev_[e];
    --bucket_count_[b];
    bucket_cost_[b] -= cost;
    group_cost_[b / kGroupSize] -= cost;
    --group_count_[b / kGroupSize];
  }

  Count cost_of_(uint64_t e) const { return cost_cache_[e]; }

  /// Sizes every backing store for n entities and supports ≤ max_support,
  /// reusing capacity (growth events counted).
  void PrepareStorage(uint64_t n, Count max_support);

  /// Resolves the exact crossing inside refine_scratch_ for residual mass
  /// `need` (selection-based, shared semantics with FindRangeBound).
  Count RefineCrossing(Count need);

  uint32_t shift_ = 0;
  uint64_t num_buckets_ = 0;
  uint64_t alive_ = 0;
  util::RelaxedCounter growths_;

  std::vector<uint64_t> bucket_count_;
  std::vector<uint64_t> bucket_cost_;
  std::vector<uint64_t> group_cost_;
  /// Alive members per summary group — lets ForEachAliveBelow skip an
  /// empty group of kGroupSize buckets at the cost of one probe, keeping
  /// the index-built active-set walk output-sensitive even when the
  /// support range (and thus the bucket count) dwarfs the member count.
  std::vector<uint64_t> group_count_;
  std::vector<uint64_t> head_;
  std::vector<uint64_t> next_;
  std::vector<uint64_t> prev_;
  std::vector<uint32_t> entity_bucket_;
  /// Static cost of each resident entity, cached at link time so Remove
  /// and Unlink never re-read the caller's cost array out of band.
  std::vector<Count> cost_cache_;
  std::vector<uint64_t> changed_;
  std::vector<std::pair<Count, Count>> refine_scratch_;
  FrontierEpochs delta_epochs_;
};

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_SUPPORT_INDEX_H_

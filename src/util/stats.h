#ifndef RECEIPT_UTIL_STATS_H_
#define RECEIPT_UTIL_STATS_H_

#include <cstdint>
#include <string>

namespace receipt {

/// Instrumentation counters reported by every decomposition algorithm.
///
/// These are exactly the quantities the paper evaluates: wedges traversed (Ó,
/// Table 3 / Figs. 6 & 8), synchronization rounds (ρ, Table 3), and per-phase
/// wall-clock time (Figs. 7 & 9). Counting a "wedge traversed" means one
/// execution of the innermost loop body in Alg. 1 (counting) or Alg. 2
/// (peeling update).
struct PeelStats {
  // -- wedge traversal, by phase ------------------------------------------
  uint64_t wedges_counting = 0;   ///< pvBcnt wedges (initial support init).
  uint64_t wedges_cd = 0;         ///< wedges traversed while peeling in CD
                                  ///  (includes HUC re-count traversals).
  uint64_t wedges_fd = 0;         ///< wedges traversed in FD (induced graphs,
                                  ///  includes subgraph-local counting).
  uint64_t wedges_other = 0;      ///< wedges traversed by baselines (BUP/ParB
                                  ///  peeling phase).

  // -- synchronization ----------------------------------------------------
  /// Number of peeling rounds that end in a thread barrier. For ParB this is
  /// one per minimum-support iteration; for RECEIPT CD one per range-peeling
  /// iteration. RECEIPT FD contributes 0 (threads only join once at the end).
  uint64_t sync_rounds = 0;

  /// Total peeling iterations (same as sync_rounds for parallel algorithms;
  /// for sequential BUP it is the number of vertices peeled).
  uint64_t peel_iterations = 0;

  // -- optimization activity ----------------------------------------------
  uint64_t huc_recounts = 0;      ///< # iterations where HUC chose re-count.
  uint64_t dgm_compactions = 0;   ///< # dynamic-graph compaction passes.

  // -- frontier scheduling: what ran ---------------------------------------
  // Active-set build counts and elements examined; deterministic across
  // runs and thread counts.
  /// Active-set builds served by merging the workspace frontier buffers
  /// (cost proportional to the frontier, not to n).
  uint64_t frontier_rounds = 0;
  /// Active-set builds collected from SupportIndex member lists instead of
  /// an O(n) scan — the first build of every range and every post-re-count
  /// rebuild.
  uint64_t index_build_rounds = 0;
  /// Entities examined by frontier-merge builds (merged frontier sizes).
  uint64_t frontier_build_elements = 0;
  /// Entities examined by index-built builds (in-range histogram members,
  /// including the crossing bucket's filtered members).
  uint64_t index_active_elements = 0;

  // -- output-sensitive coarse index (SupportIndex) ------------------------
  /// Histogram buckets (summary groups + leaf buckets) examined by the
  /// range-bound prefix walks that replace the per-range sort.
  uint64_t bound_walk_buckets = 0;
  /// Bucket members examined by in-bucket refines (resolving the exact
  /// crossing support inside the bucket the prefix walk stopped at).
  uint64_t histogram_refines = 0;
  /// Entities examined while patching ⊲⊳init at range boundaries: the
  /// changed-since-last-boundary list per patch, or n when a HUC re-count
  /// forced the full-snapshot fallback.
  uint64_t init_patch_elements = 0;
  /// Entities re-inserted by full SupportIndex rebuilds (the one up-front
  /// build plus one per HUC re-count, which invalidates delta tracking).
  uint64_t index_rebuild_elements = 0;

  // -- structure ----------------------------------------------------------
  uint64_t num_subsets = 0;       ///< P actually produced by RECEIPT CD.

  // -- time, seconds ------------------------------------------------------
  double seconds_counting = 0.0;  ///< pvBcnt.
  double seconds_cd = 0.0;        ///< RECEIPT CD peeling.
  double seconds_fd = 0.0;        ///< RECEIPT FD.
  double seconds_total = 0.0;     ///< whole decomposition.

  /// Sum of all wedge counters.
  uint64_t TotalWedges() const {
    return wedges_counting + wedges_cd + wedges_fd + wedges_other;
  }

  /// Accumulates `other` into this object (used to fold per-thread stats).
  void Merge(const PeelStats& other);

  /// Human-readable one-object dump (multi-line) for logs and examples.
  std::string ToString() const;
};

}  // namespace receipt

#endif  // RECEIPT_UTIL_STATS_H_

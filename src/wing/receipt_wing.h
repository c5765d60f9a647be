#ifndef RECEIPT_WING_RECEIPT_WING_H_
#define RECEIPT_WING_RECEIPT_WING_H_

#include <span>
#include <vector>

#include "engine/peel_engine.h"
#include "engine/range_result.h"
#include "graph/bipartite_graph.h"
#include "obs/trace.h"
#include "wing/wing_decomposition.h"

namespace receipt {

/// Options for the parallel RECEIPT-style wing decomposition.
struct ReceiptWingOptions {
  int num_threads = 1;

  /// Number of wing-number ranges / edge subsets. Wing-number ranges are
  /// much narrower than tip-number ranges (§7), so a handful of partitions
  /// suffices; large values inflate the fine-grained environment graphs.
  int num_partitions = 8;

  /// Caller-owned per-thread scratch (see TipOptions::workspace_pool).
  engine::WorkspacePool* workspace_pool = nullptr;

  /// Optional cancellation/progress hook (see TipOptions::control).
  engine::PeelControl* control = nullptr;

  /// Span sink + request identity (see TipOptions::trace). Null by
  /// default; tracing never changes results.
  obs::TraceContext trace;
};

/// Runs only the coarse step of RECEIPT-W: edge-butterfly counting plus the
/// range decomposition of the edge set, without the fine-grained per-subset
/// peeling. Exposed so the coarse artifacts (bounds, subsets, subset_of,
/// ⊲⊳init) can be inspected and tested directly — the coarse suites check
/// these RangeResults for thread-count invariance. Contributes wedges_counting, the CD counters
/// and num_subsets to `*stats`.
engine::RangeResult<EdgeOffset> ReceiptWingCoarse(
    const BipartiteGraph& graph, const ReceiptWingOptions& options,
    PeelStats* stats);

/// Fine step only, selectively: peels the subsets with
/// `only_subsets[sid] != 0` (an empty span means all) against their
/// environment graphs, leaving every other entry of `wing_numbers`
/// untouched. Subset peels only read the coarse artifacts and the graph,
/// so the peeled subsets' numbers are bit-identical to a full pass.
void ReceiptWingFine(const BipartiteGraph& graph,
                     const engine::RangeResult<EdgeOffset>& coarse,
                     const ReceiptWingOptions& options,
                     std::span<Count> wing_numbers, PeelStats* stats,
                     std::span<const uint8_t> only_subsets);

/// RECEIPT-W — the §7 extension direction made concrete: the two-step
/// RECEIPT scheme applied to *edge* peeling (wing decomposition).
///
/// Step 1 (coarse): edges are partitioned into subsets with non-overlapping
/// wing-number ranges by concurrently peeling every edge whose support lies
/// in the current range. The §7 conflict the paper warns about — multiple
/// edges of one butterfly peeled in the same iteration must not each apply
/// the butterfly's update — is resolved by a priority rule: among the
/// edges of a butterfly peeled in the same round, only the smallest edge id
/// applies the decrement to the butterfly's surviving edges.
///
/// Step 2 (fine): each subset is peeled sequentially against its
/// *environment graph* (the union of its own and all higher subsets'
/// edges — unlike tip decomposition, a butterfly's other two edges can lie
/// in higher subsets), with supports initialized from the coarse step.
/// Subsets are processed concurrently by a dynamic task queue.
///
/// Produces exactly the wing numbers of sequential WingDecompose.
WingResult ReceiptWingDecompose(const BipartiteGraph& graph,
                                const ReceiptWingOptions& options);

}  // namespace receipt

#endif  // RECEIPT_WING_RECEIPT_WING_H_

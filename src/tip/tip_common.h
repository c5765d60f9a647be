#ifndef RECEIPT_TIP_TIP_COMMON_H_
#define RECEIPT_TIP_TIP_COMMON_H_

#include <cstdint>
#include <vector>

#include "engine/extraction.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/types.h"

namespace receipt {

namespace engine {
class PeelControl;
class WorkspacePool;
}  // namespace engine

/// The order RECEIPT FD's idle threads take subsets in (§3.2.1, Fig. 3).
/// Subsets are peeled independently, so results are bit-identical either
/// way; only the load balance differs.
enum class FdOrder {
  /// Longest-Processing-Time: highest predicted peel cost first, ties to
  /// the lower subset id. The paper's workload-aware scheduling.
  kCostDescending,
  /// Creation order: the paper's unscheduled baseline (Fig. 3).
  kCreation,
};

/// Configuration for a tip decomposition run.
struct TipOptions {
  /// Which vertex set to decompose. Internally the graph is transposed for
  /// Side::kV, so algorithms always peel "U".
  Side side = Side::kU;

  /// Number of threads (T in the paper).
  int num_threads = 1;

  /// RECEIPT only: number of vertex subsets / tip-number ranges (P). The
  /// paper uses 150 for all datasets (§5.1, Fig. 5).
  int num_partitions = 150;

  /// RECEIPT only: enable Hybrid Update Computation (§4.1). Disabling this
  /// and DGM yields the paper's RECEIPT-- configuration.
  bool use_huc = true;

  /// RECEIPT only: enable Dynamic Graph Maintenance (§4.2). Disabling only
  /// this yields the paper's RECEIPT- configuration.
  bool use_dgm = true;

  /// RECEIPT FD only: the subset pop order. The Fig. 3 bench compares
  /// kCostDescending (default) against the kCreation baseline.
  FdOrder fd_order = FdOrder::kCostDescending;

  /// BUP and RECEIPT FD: the min-support extraction structure (§5.1
  /// implementation ablation; see bench_ablation_extraction).
  MinExtraction min_extraction = MinExtraction::kDAryHeap;

  /// Caller-owned per-thread scratch. When set, the decomposition runs on
  /// these workspaces instead of allocating its own pool — the service layer
  /// passes each worker's pool here so scratch reuse spans *requests*, not
  /// just rounds within one run. Must stay alive for the whole call; sized
  /// up via Prepare() as needed (never shrunk).
  engine::WorkspacePool* workspace_pool = nullptr;

  /// Optional cancellation/progress hook polled by every peel loop. When
  /// cancellation fires mid-run the returned tip numbers are incomplete;
  /// callers must check control->Cancelled() before trusting the result.
  engine::PeelControl* control = nullptr;

  /// Span sink + request identity for phase tracing. Default-constructed it
  /// is a null sink: every emission bails on one pointer test before
  /// touching the clock (bench_obs_micro gates that the disabled path adds
  /// no measurable overhead). Tracing never changes results.
  obs::TraceContext trace;
};

/// Output of a tip decomposition.
struct TipResult {
  /// tip_numbers[i] = θ of the i-th vertex of the decomposed side
  /// (side-local id).
  std::vector<Count> tip_numbers;

  /// Instrumentation (wedges, sync rounds, per-phase time).
  PeelStats stats;

  /// RECEIPT only — the coarse decomposition artifacts, kept for analysis
  /// and tests (empty for BUP/ParB):
  /// range_bounds = {θ(1), θ(2), …, θ(P'+1)}; subset i covers
  /// [range_bounds[i], range_bounds[i+1]). The final bound is
  /// kInvalidCount when the last subset is unbounded.
  std::vector<Count> range_bounds;
  /// subset_of[u] = index of the subset that u was assigned to.
  std::vector<uint32_t> subset_of;
  /// The subsets U_1 … U_P' in side-local ids, in peeling order.
  std::vector<std::vector<VertexId>> subsets;

  /// Maximum tip number (θ_max of Table 2).
  Count MaxTipNumber() const {
    Count max_tip = 0;
    for (const Count t : tip_numbers) max_tip = max_tip < t ? t : max_tip;
    return max_tip;
  }
};

}  // namespace receipt

#endif  // RECEIPT_TIP_TIP_COMMON_H_

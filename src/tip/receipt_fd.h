#ifndef RECEIPT_TIP_RECEIPT_FD_H_
#define RECEIPT_TIP_RECEIPT_FD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "tip/receipt_cd.h"
#include "tip/tip_common.h"
#include "util/stats.h"

namespace receipt {

/// Number of wedges with both endpoints in each subset — Σ_v C(c_{v,i}, 2)
/// where c_{v,i} = |N(v) ∩ U_i|. This is §3.2.1's original induced-subgraph
/// workload proxy. FD orders by the coarse step's predicted costs instead;
/// bench_fig3_scheduling feeds these counts to its makespan model.
std::vector<Count> ComputeSubsetWedgeCounts(const BipartiteGraph& graph,
                                            std::span<const uint32_t> subset_of,
                                            uint32_t num_subsets,
                                            int num_threads);

/// The order FD pops subsets in: indices into `costs`, highest cost first
/// with ties to the lower id under FdOrder::kCostDescending (the LPT rule
/// of §3.2.1), 0, 1, … under FdOrder::kCreation (the Fig. 3 baseline).
std::vector<uint32_t> FdPopOrder(std::span<const Count> costs, FdOrder order);

/// RECEIPT FD (Alg. 4): computes exact tip numbers by peeling each CD subset
/// independently. Subsets form one task list in FdPopOrder over
/// cd.predicted_costs (see TipOptions::fd_order); each idle thread takes
/// the next subset and peels it whole: build the induced subgraph,
/// initialize supports from ⊲⊳init, run the engine's sequential bottom-up
/// peeler with a k-way min-heap. No thread synchronization occurs until the
/// final join, so FD adds 0 to sync_rounds. The pop order never changes
/// results — subsets are independent — only the load balance.
///
/// Requires cd.predicted_costs to hold one cost per subset, as ReceiptCd
/// always fills it.
///
/// Honours options.use_huc (re-count within the induced subgraph plus the
/// fixed external contribution ⊲⊳init − ⊲⊳in_G_i, §4.1) and options.use_dgm.
///
/// Writes θ_u into tip_numbers[u] (side-local ids of `graph`, which must be
/// oriented with the peeled side as U — same orientation given to ReceiptCd).
void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, std::span<Count> tip_numbers,
               PeelStats* stats);

/// Pool-sharing overload: each worker thread peels its subsets with its own
/// workspace from `pool`, so successive partitions reuse the same scratch.
void ReceiptFd(const BipartiteGraph& graph, const CdResult& cd,
               const TipOptions& options, engine::WorkspacePool& pool,
               std::span<Count> tip_numbers, PeelStats* stats);

}  // namespace receipt

#endif  // RECEIPT_TIP_RECEIPT_FD_H_

#ifndef RECEIPT_TIP_RECEIPT_CD_H_
#define RECEIPT_TIP_RECEIPT_CD_H_

#include <cstdint>
#include <vector>

#include "engine/peel_engine.h"
#include "engine/range_result.h"
#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "tip/tip_common.h"
#include "util/stats.h"
#include "util/types.h"

namespace receipt {

/// Output of the Coarse-grained Decomposition step: the engine's range
/// decomposition instantiated for vertices. Fields:
///   bounds       θ(1)=0, θ(2), …, θ(P'+1): subset i (0-based) covers tip
///                numbers in [bounds[i], bounds[i+1]); the final bound is
///                kInvalidCount if the last subset is unbounded.
///   subsets      U_1 … U_P' in side-local U ids, in peeling order.
///   subset_of    subset_of[u] = subset index of u.
///   init_support ⊲⊳init — the FD initialization vector.
using CdResult = engine::RangeResult<VertexId>;

/// RECEIPT CD (Alg. 3): partitions the U side of `graph` into ≤ P+1 vertex
/// subsets with non-overlapping tip-number ranges, by iteratively peeling
/// *every* vertex whose support falls inside the current range (not just the
/// minimum). Range upper bounds are chosen by the two-way adaptive rule of
/// §3.1.1 so induced-subgraph workloads are balanced for FD.
///
/// Honours options.use_huc (Hybrid Update Computation, §4.1) and
/// options.use_dgm (Dynamic Graph Maintenance, §4.2).
///
/// `graph` must already be oriented so the peeled side is U. Contributes
/// wedges_counting/wedges_cd, sync_rounds, HUC/DGM counters and
/// seconds_counting/seconds_cd to `*stats`.
CdResult ReceiptCd(const BipartiteGraph& graph, const TipOptions& options,
                   PeelStats* stats);

/// Pool-sharing overload: reuses `pool`'s per-thread workspaces for
/// counting and every peeling round (ReceiptDecompose passes one pool
/// through CD and FD so the whole decomposition allocates scratch once).
CdResult ReceiptCd(const BipartiteGraph& graph, const TipOptions& options,
                   engine::WorkspacePool& pool, PeelStats* stats);

}  // namespace receipt

#endif  // RECEIPT_TIP_RECEIPT_CD_H_

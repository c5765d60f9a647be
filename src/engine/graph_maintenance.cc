#include "engine/graph_maintenance.h"

#include "util/parallel.h"

namespace receipt::engine {

GraphMaintenance::GraphMaintenance(DynamicGraph& live, bool use_huc,
                                   bool use_dgm, uint64_t wedge_budget,
                                   int num_threads)
    : live_(&live),
      use_huc_(use_huc),
      use_dgm_(use_dgm),
      wedge_budget_(wedge_budget),
      num_threads_(num_threads),
      recount_bound_(use_huc ? live.RecountCostBound(num_threads) : 0) {}

bool GraphMaintenance::ShouldRecount(Count static_cost,
                                     std::span<const VertexId> peeled) const {
  if (!use_huc_ || static_cost <= recount_bound_) return false;
  const Count live_cost = ParallelReduceSum<Count>(
      peeled.size(), num_threads_,
      [&](size_t i) { return live_->LiveWedgeCount(peeled[i]); });
  return live_cost > recount_bound_;
}

void GraphMaintenance::CompactNow() {
  live_->Compact(num_threads_, use_huc_ ? &recount_bound_ : nullptr);
  ++compactions_;
  wedges_since_compact_ = 0;
}

void GraphMaintenance::OnPeelWedges(uint64_t wedges) {
  wedges_since_compact_ += wedges;
  if (use_dgm_ && wedges_since_compact_ > wedge_budget_) CompactNow();
}

}  // namespace receipt::engine

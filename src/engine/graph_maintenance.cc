#include "engine/graph_maintenance.h"

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

void GraphMaintenance::BeginRecount() {
  live_->Compact(num_threads_);
  ++compactions_;
  wedges_since_compact_ = 0;
}

void GraphMaintenance::EndRecount() {
  recount_bound_ = live_->RecountCostBound(num_threads_);
}

void GraphMaintenance::OnPeelWedges(uint64_t wedges) {
  wedges_since_compact_ += wedges;
  if (use_dgm_ && wedges_since_compact_ > wedge_budget_) {
    live_->Compact(num_threads_);
    ++compactions_;
    wedges_since_compact_ = 0;
    if (use_huc_) recount_bound_ = live_->RecountCostBound(num_threads_);
  }
}

}  // namespace receipt::engine

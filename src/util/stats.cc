#include "util/stats.h"

#include <sstream>

namespace receipt {

void PeelStats::Merge(const PeelStats& other) {
  wedges_counting += other.wedges_counting;
  wedges_cd += other.wedges_cd;
  wedges_fd += other.wedges_fd;
  wedges_other += other.wedges_other;
  sync_rounds += other.sync_rounds;
  peel_iterations += other.peel_iterations;
  huc_recounts += other.huc_recounts;
  dgm_compactions += other.dgm_compactions;
  frontier_rounds += other.frontier_rounds;
  index_build_rounds += other.index_build_rounds;
  frontier_build_elements += other.frontier_build_elements;
  index_active_elements += other.index_active_elements;
  bound_walk_buckets += other.bound_walk_buckets;
  histogram_refines += other.histogram_refines;
  init_patch_elements += other.init_patch_elements;
  index_rebuild_elements += other.index_rebuild_elements;
  num_subsets += other.num_subsets;
  seconds_counting += other.seconds_counting;
  seconds_cd += other.seconds_cd;
  seconds_fd += other.seconds_fd;
  seconds_total += other.seconds_total;
}

std::string PeelStats::ToString() const {
  std::ostringstream os;
  os << "PeelStats{\n"
     << "  wedges: counting=" << wedges_counting << " cd=" << wedges_cd
     << " fd=" << wedges_fd << " other=" << wedges_other
     << " total=" << TotalWedges() << "\n"
     << "  sync_rounds=" << sync_rounds
     << " peel_iterations=" << peel_iterations << "\n"
     << "  huc_recounts=" << huc_recounts
     << " dgm_compactions=" << dgm_compactions
     << " num_subsets=" << num_subsets << "\n"
     << "  frontier_rounds=" << frontier_rounds
     << " index_build_rounds=" << index_build_rounds << "\n"
     << "  frontier_build_elements=" << frontier_build_elements
     << " index_active_elements=" << index_active_elements << "\n"
     << "  bound_walk_buckets=" << bound_walk_buckets
     << " histogram_refines=" << histogram_refines
     << " init_patch_elements=" << init_patch_elements
     << " index_rebuild_elements=" << index_rebuild_elements << "\n"
     << "  seconds: counting=" << seconds_counting << " cd=" << seconds_cd
     << " fd=" << seconds_fd << " total=" << seconds_total << "\n"
     << "}";
  return os.str();
}

}  // namespace receipt

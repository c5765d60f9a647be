#ifndef RECEIPT_PERFBENCH_WORKLOADS_H_
#define RECEIPT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate corruption for the checks' own test: "flip" alters one
  /// number of one routed response, "stale" rolls one read of the op log
  /// back to an older epoch. Empty in normal runs.
  std::string inject;
  /// Scratch root for replica data directories (inside the checkout).
  std::string work_dir = ".";
};

/// The paper's experiment in-process: RECEIPT tip decomposition of the 12
/// analogue targets at t=4 and t=1, then RECEIPT-W on the 6 analogues.
Outcome RunEngineSweep(const RunConfig& config);

/// Cache-hit decomposes through the router of a 3-replica durable cluster,
/// interleaved with the same reads sent straight to a holder.
Outcome RunRoutedReads(const RunConfig& config);

/// Reads racing tail-churn edge batches (journaled, replicated, sealed
/// every 8th batch) on two graphs owned by one replica.
Outcome RunRoutedMixed(const RunConfig& config);

/// Feeds the correctness checks a corrupted answer and a stale op log;
/// returns true when both are caught.
bool RunSelfTest();

}  // namespace perfbench

#endif  // RECEIPT_PERFBENCH_WORKLOADS_H_

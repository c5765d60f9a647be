#ifndef RECEIPT_OBS_OBSERVABILITY_H_
#define RECEIPT_OBS_OBSERVABILITY_H_

#include "obs/metrics.h"
#include "obs/trace.h"

namespace receipt::obs {

/// A metrics registry and a span flight recorder. Each DecompositionService
/// owns one, which its HTTP front-end and the CLI report through too, so
/// instruments always exist and call sites never null-check.
struct Observability {
  MetricsRegistry metrics;
  TraceRecorder traces{4096};
};

}  // namespace receipt::obs

#endif  // RECEIPT_OBS_OBSERVABILITY_H_

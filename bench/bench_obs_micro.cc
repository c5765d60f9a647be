// Observability micro-benchmark: the null-sink guarantee. Tracing and
// metrics ride the engine's hot path through TraceContext, so two things
// must hold before any of it ships:
//
//  * Bit-identicality: a decomposition with a recording TraceContext wired
//    through TipOptions returns exactly the results of an untraced run —
//    same tip numbers, bounds, subsets, subset_of. Observability reads the
//    computation; it never steers it.
//  * Disabled-path cost: with a default (null) TraceContext, EmitSince /
//    ScopedSpan / enabled() must cost a branch on a null pointer — gated at
//    a deliberately lenient per-op ceiling so the gate trips on "someone
//    put a clock read before the enabled() check", not on sanitizer or
//    scheduling noise.
//
// Recording-path costs (Record into the ring, Counter::Increment, Histogram
// ::Observe) and the end-to-end traced-vs-untraced wall-time ratio are
// reported for the log but not gated: wall time on shared CI is noise, and
// the bit-identicality gate is the one that matters. `--json <path>` emits
// a BENCH_obs_micro trajectory file. Plain executable (no google-benchmark).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tip/receipt.h"

namespace receipt::bench {
namespace {

/// Ceiling on the disabled-path per-op cost. A null TraceContext emission
/// is a load + branch (~1 ns); 250 ns absorbs ASan instrumentation and CI
/// scheduling jitter while still catching an accidental clock read or
/// allocation on the disabled path (both land well above it).
constexpr double kNullOpCeilingNs = 250.0;

constexpr uint64_t kPrimitiveOps = 2'000'000;

/// Launders a pointer through volatile so the optimizer cannot prove the
/// TraceContext null and fold the measured loop away.
template <typename T>
T* Launder(T* pointer) {
  T* volatile slot = pointer;
  return slot;
}

double NsPerOp(uint64_t ops, double seconds) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

TipOptions BaseOptions() {
  TipOptions options;
  options.num_threads = DefaultThreads();
  options.num_partitions = DefaultPartitions();
  return options;
}

bool SameResults(const TipResult& a, const TipResult& b) {
  return a.tip_numbers == b.tip_numbers && a.range_bounds == b.range_bounds &&
         a.subset_of == b.subset_of && a.subsets == b.subsets;
}

bool RunPrimitiveCosts(std::vector<JsonRecord>& records) {
  bool ok = true;
  JsonRecord record;
  record.name = "primitives";

  // -- disabled path: the gated measurement --------------------------------
  obs::TraceContext null_ctx;
  null_ctx.recorder = Launder<obs::TraceRecorder>(nullptr);
  {
    const WallTimer timer;
    for (uint64_t i = 0; i < kPrimitiveOps; ++i) {
      null_ctx.EmitSince("bench.disabled", i, i);
    }
    const double ns = NsPerOp(kPrimitiveOps, timer.Seconds());
    std::printf("null EmitSince        %8.2f ns/op\n", ns);
    record.values.emplace_back("null_emit_ns_per_op", ns);
    if (ns > kNullOpCeilingNs) {
      std::printf("!! null EmitSince %.2f ns/op exceeds the %.0f ns ceiling\n",
                  ns, kNullOpCeilingNs);
      ok = false;
    }
  }
  {
    const WallTimer timer;
    for (uint64_t i = 0; i < kPrimitiveOps; ++i) {
      obs::ScopedSpan span(null_ctx, "bench.disabled", i);
    }
    const double ns = NsPerOp(kPrimitiveOps, timer.Seconds());
    std::printf("null ScopedSpan       %8.2f ns/op\n", ns);
    record.values.emplace_back("null_scoped_span_ns_per_op", ns);
    if (ns > kNullOpCeilingNs) {
      std::printf("!! null ScopedSpan %.2f ns/op exceeds the %.0f ns ceiling\n",
                  ns, kNullOpCeilingNs);
      ok = false;
    }
  }

  // -- recording path: reported, not gated ---------------------------------
  obs::TraceRecorder recorder(4096);
  obs::TraceContext live_ctx{Launder(&recorder), 42};
  {
    const WallTimer timer;
    for (uint64_t i = 0; i < kPrimitiveOps; ++i) {
      live_ctx.Emit("bench.record", i, 1, i);
    }
    const double ns = NsPerOp(kPrimitiveOps, timer.Seconds());
    std::printf("ring Record           %8.2f ns/op  (reported only)\n", ns);
    record.values.emplace_back("record_ns_per_op", ns);
  }
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_total", "bench");
  obs::Histogram* histogram = registry.GetHistogram("bench_seconds", "bench");
  {
    const WallTimer timer;
    for (uint64_t i = 0; i < kPrimitiveOps; ++i) {
      Launder(counter)->Increment();
    }
    const double ns = NsPerOp(kPrimitiveOps, timer.Seconds());
    std::printf("Counter::Increment    %8.2f ns/op  (reported only)\n", ns);
    record.values.emplace_back("counter_ns_per_op", ns);
  }
  {
    const WallTimer timer;
    for (uint64_t i = 0; i < kPrimitiveOps; ++i) {
      Launder(histogram)->Observe(i);
    }
    const double ns = NsPerOp(kPrimitiveOps, timer.Seconds());
    std::printf("Histogram::Observe    %8.2f ns/op  (reported only)\n", ns);
    record.values.emplace_back("histogram_observe_ns_per_op", ns);
  }
  records.push_back(std::move(record));
  return ok;
}

bool RunEndToEnd(std::vector<JsonRecord>& records) {
  bool ok = true;
  const BipartiteGraph graph =
      ChungLuBipartite(2500, 1800, 22000, 0.85, 0.85, 1001);
  obs::TraceRecorder recorder(4096);

  // Untraced first, then traced: identical options except the context.
  TipOptions untraced_options = BaseOptions();
  const TipResult untraced = ReceiptDecompose(graph, untraced_options);

  TipOptions traced_options = BaseOptions();
  traced_options.trace = obs::TraceContext{&recorder, 7};
  const TipResult traced = ReceiptDecompose(graph, traced_options);

  if (!SameResults(untraced, traced)) {
    std::printf("!! traced run is not bit-identical to the untraced run\n");
    ok = false;
  }
  if (recorder.recorded() == 0) {
    std::printf("!! traced run recorded no spans — the plumbing is dead\n");
    ok = false;
  }

  // Wall-time medians over several runs, reported only.
  constexpr int kRuns = 5;
  const auto median_seconds = [&graph](const TipOptions& base) {
    std::vector<double> seconds;
    for (int run = 0; run < kRuns; ++run) {
      TipOptions options = base;
      seconds.push_back(ReceiptDecompose(graph, options).stats.seconds_total);
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[kRuns / 2];
  };
  const double untraced_median = median_seconds(untraced_options);
  const double traced_median = median_seconds(traced_options);
  std::printf(
      "end-to-end medians    untraced=%.4fs traced=%.4fs ratio=%.3f "
      "(reported only)  spans_recorded=%llu\n",
      untraced_median, traced_median,
      untraced_median == 0.0 ? 0.0 : traced_median / untraced_median,
      static_cast<unsigned long long>(recorder.recorded()));

  JsonRecord record;
  record.name = "end_to_end";
  record.counters.emplace_back("spans_recorded", recorder.recorded());
  record.counters.emplace_back("bit_identical", ok ? 1 : 0);
  record.values.emplace_back("untraced_median_seconds", untraced_median);
  record.values.emplace_back("traced_median_seconds", traced_median);
  AppendPeelStats(traced.stats, &record);
  records.push_back(std::move(record));
  return ok;
}

int Main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  PrintHeader(
      "observability micro-bench — null-sink TraceContext cost and "
      "traced-vs-untraced bit-identicality");

  std::vector<JsonRecord> records;
  bool ok = RunPrimitiveCosts(records);
  ok = RunEndToEnd(records) && ok;

  PrintRule();
  std::printf("verdict: %s\n", ok ? "OK" : "FAILED");
  if (!json_path.empty()) {
    if (!WriteBenchJson(json_path, "obs_micro", records)) ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) { return receipt::bench::Main(argc, argv); }

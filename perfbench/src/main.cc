// The repository's end-to-end benchmark. One command runs one named
// workload with a seed for a fixed time, checks every answer against an
// oracle, and prints the metrics as one JSON line (the last line of
// stdout). Exit code 0 only when every check passed.
//
//   receipt_perfbench --workload engine_sweep --seed 1 --seconds 20 --trace 0
//   receipt_perfbench --self-test
//
// See ../README.md for the workloads, the metrics and their layer map.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every end-to-end metric. "main" is the
// workload's primary operation, "side" its secondary one:
//   engine_sweep  main = RECEIPT tip decomposition of one target at t=4,
//                 side = RECEIPT-W wing decomposition of one analogue at t=4
//   routed_reads  main = cache-hit read through the router,
//                 side = the same read sent straight to a holder
//   routed_mixed  main = read through the router,
//                 side = a 64-update edge batch that seals (every 8th)
// The tails of both are per-layer metrics: on a VM that shares its host
// they spread wider from run to run than any regression bound could allow.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"rss_mb", "MB"},     {"main_per_s", "1/s"},
    {"main_p50_ms", "ms"}, {"side_per_s", "1/s"}, {"side_p50_ms", "ms"},
};

// Every workload reports every per-layer metric in a traced run; a layer
// the workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"tip.sweep_s", "s"},
    {"graph.transpose_s", "s"},
    {"tip.count_s", "s"},
    {"tip.cd_s", "s"},
    {"tip.fd_s", "s"},
    {"tip.cd_s_t1", "s"},
    {"tip.fd_s_t1", "s"},
    {"tip.sync_rounds", "count"},
    {"tip.cd_us_per_round", "us"},
    {"tip.wedges_counting", "count"},
    {"tip.wedges_cd", "count"},
    {"tip.wedges_fd", "count"},
    {"tip.unattributed_s", "s"},
    {"tip.cd_excursions", "count"},
    {"tip.speedup_t4", "x"},
    {"wing.sweep_s", "s"},
    {"wing.count_s", "s"},
    {"wing.cd_s", "s"},
    {"wing.fd_s", "s"},
    {"wing.sync_rounds", "count"},
    {"wing.wedges", "count"},
    {"engine.workspace_growths", "count"},
    {"router.hop_ms", "ms"},
    {"router.failovers", "count"},
    {"router.no_replica", "count"},
    {"server.direct_read_ms", "ms"},
    {"server.serialize_ms", "ms"},
    {"server.response_bytes", "bytes"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.engine_runs", "count"},
    {"service.queue_wait_ms", "ms"},
    {"live.seal_s", "s"},
    {"live.incremental_ratio", "ratio"},
    {"live.reuse_ratio", "ratio"},
    {"journal.appends", "count"},
    {"journal.fsyncs", "count"},
    {"journal.bytes", "bytes"},
    {"snapshot.written", "count"},
    {"cluster.replicated_out", "count"},
    {"cluster.replication_failures", "count"},
    {"cluster.chain_syncs", "count"},
    {"cluster.stale_rejects", "count"},
    {"cluster.write_p50_ms", "ms"},
    {"main.tail_ms", "ms"},
    {"side.tail_ms", "ms"},
    {"main.samples", "count"},
    {"side.samples", "count"},
    {"traced.main_p50_ms", "ms"},
    {"traced.side_p50_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: receipt_perfbench --workload "
               "engine_sweep|routed_reads|routed_mixed --seed N --seconds S "
               "--trace 0|1 [--inject flip|stale] [--work-dir DIR]\n"
               "       receipt_perfbench --self-test\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--inject") {
      config.inject = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (self_test) {
    const bool ok = RunSelfTest();
    std::printf("self-test: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
  }
  if (config.seconds <= 0 ||
      (!config.inject.empty() && config.inject != "flip" &&
       config.inject != "stale")) {
    return Usage();
  }

  Outcome outcome;
  if (config.workload == "engine_sweep") {
    outcome = RunEngineSweep(config);
  } else if (config.workload == "routed_reads") {
    outcome = RunRoutedReads(config);
  } else if (config.workload == "routed_mixed") {
    outcome = RunRoutedMixed(config);
  } else {
    return Usage();
  }
  outcome.end_to_end.Set("rss_mb", PeakRssMb(), "MB");  // measured work only

  MetricSet printed;
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* metric = outcome.per_layer.Find(spec.name);
      printed.Set(spec.name, metric != nullptr ? metric->value : 0.0,
                  spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* metric = outcome.end_to_end.Find(spec.name);
      if (metric == nullptr) {
        outcome.Problem(std::string("metric not measured: ") + spec.name);
        continue;
      }
      printed.Set(spec.name, metric->value, spec.unit);
    }
  }
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("%s: %s, %llu operations, %llu failed\n",
              config.workload.c_str(),
              outcome.correct ? "all answers correct" : "WRONG ANSWERS",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  PrintResult(outcome, printed);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

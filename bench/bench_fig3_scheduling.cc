// Ablation for Fig. 3 (§3.2.1): Workload-aware Scheduling (WaS) of the
// RECEIPT FD task queue. Part 1 re-enacts the figure's 2-thread schedule on
// synthetic task costs; part 2 measures FD time with and without WaS on the
// real datasets.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "tip/receipt_cd.h"
#include "tip/receipt_fd.h"

namespace receipt::bench {
namespace {

/// Simulated makespan of dynamic task allocation for given task costs:
/// each idle worker takes the next task in queue order (the list-scheduling
/// model of Fig. 3).
uint64_t SimulateMakespan(std::vector<uint64_t> costs, int workers,
                          bool workload_aware) {
  if (workload_aware) {
    std::sort(costs.begin(), costs.end(), std::greater<>());
  }
  std::vector<uint64_t> finish(static_cast<size_t>(workers), 0);
  for (const uint64_t c : costs) {
    auto& earliest = *std::min_element(finish.begin(), finish.end());
    earliest += c;
  }
  return *std::max_element(finish.begin(), finish.end());
}

void FigureThreeExample(benchmark::State& state) {
  // The exact task costs of Fig. 3: t = {13, 4, 10, 20, 1, 2}, 2 threads.
  const std::vector<uint64_t> costs = {13, 4, 10, 20, 1, 2};
  uint64_t naive = 0;
  uint64_t was = 0;
  for (auto _ : state) {
    naive = SimulateMakespan(costs, 2, false);
    was = SimulateMakespan(costs, 2, true);
  }
  state.counters["model_naive"] = static_cast<double>(naive);
  state.counters["model_was"] = static_cast<double>(was);
  std::printf(
      "Fig. 3 exact example: naive order finishes at t=%llu (paper: 33), "
      "WaS at t=%llu (paper: 25)\n",
      static_cast<unsigned long long>(naive),
      static_cast<unsigned long long>(was));
}

struct Row {
  double fd_was = 0;
  double fd_naive = 0;
  uint64_t model_was = 0;
  uint64_t model_naive = 0;
};

std::map<std::string, Row>& Rows() {
  static auto& rows = *new std::map<std::string, Row>();
  return rows;
}

void DatasetScheduling(benchmark::State& state, const Target& target) {
  const BipartiteGraph swapped = target.side == Side::kV
                                     ? Dataset(target.dataset).SwappedCopy()
                                     : BipartiteGraph();
  const BipartiteGraph& g =
      target.side == Side::kV ? swapped : Dataset(target.dataset);
  TipOptions options;
  options.num_threads = DefaultThreads();
  options.num_partitions = DefaultPartitions();
  Row row;
  for (auto _ : state) {
    PeelStats cd_stats;
    const CdResult cd = ReceiptCd(g, options, &cd_stats);
    // Wall-clock FD with and without WaS (LPT vs creation pop order).
    std::vector<Count> tips(g.num_u());
    PeelStats fd_stats_was;
    options.fd_order = FdOrder::kCostDescending;
    ReceiptFd(g, cd, options, tips, &fd_stats_was);
    row.fd_was = fd_stats_was.seconds_fd;
    PeelStats fd_stats_naive;
    options.fd_order = FdOrder::kCreation;
    ReceiptFd(g, cd, options, tips, &fd_stats_naive);
    row.fd_naive = fd_stats_naive.seconds_fd;
    // Deterministic makespan model on the real subset workloads (immune to
    // the single-core timing noise).
    const std::vector<Count> wedges = ComputeSubsetWedgeCounts(
        g, cd.subset_of, static_cast<uint32_t>(cd.subsets.size()),
        options.num_threads);
    std::vector<uint64_t> costs(wedges.begin(), wedges.end());
    row.model_naive = SimulateMakespan(costs, 4, false);
    row.model_was = SimulateMakespan(costs, 4, true);
  }
  state.counters["fd_was_s"] = row.fd_was;
  state.counters["fd_naive_s"] = row.fd_naive;
  Rows()[target.label] = row;
}

void PrintTable() {
  PrintHeader(
      "Fig. 3 ablation — workload-aware scheduling of RECEIPT FD tasks");
  std::printf("%-5s | %10s %10s | %14s %14s %9s\n", "tgt", "FD+WaS(s)",
              "FD naive(s)", "model_WaS", "model_naive", "model_gain");
  PrintRule();
  for (const auto& [label, r] : Rows()) {
    std::printf("%-5s | %10.3f %10.3f | %14llu %14llu %8.2f%%\n",
                label.c_str(), r.fd_was, r.fd_naive,
                static_cast<unsigned long long>(r.model_was),
                static_cast<unsigned long long>(r.model_naive),
                r.model_naive > 0
                    ? 100.0 * (1.0 - static_cast<double>(r.model_was) /
                                         static_cast<double>(r.model_naive))
                    : 0.0);
  }
  PrintRule();
  std::printf(
      "model = 4-worker list-scheduling makespan over the measured induced "
      "subset wedge counts (LPT is a 4/3-approximation).\n\n");
}

std::vector<JsonRecord> CollectRecords() {
  std::vector<JsonRecord> records;
  for (const auto& [label, r] : Rows()) {
    JsonRecord record;
    record.name = label;
    record.counters.emplace_back("model_was", r.model_was);
    record.counters.emplace_back("model_naive", r.model_naive);
    record.values.emplace_back("fd_was_s", r.fd_was);
    record.values.emplace_back("fd_naive_s", r.fd_naive);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) {
  const std::string json_path = receipt::bench::ConsumeJsonFlag(&argc, argv);
  benchmark::RegisterBenchmark("Fig3/PaperExample",
                               receipt::bench::FigureThreeExample)
      ->Iterations(1);
  for (const receipt::bench::Target& target : receipt::bench::AllTargets()) {
    if (target.side != receipt::Side::kU) continue;
    benchmark::RegisterBenchmark(
        ("Fig3/" + target.label).c_str(),
        [target](benchmark::State& state) {
          receipt::bench::DatasetScheduling(state, target);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  receipt::bench::PrintTable();
  if (!json_path.empty() &&
      !receipt::bench::WriteBenchJson(json_path, "fig3_scheduling",
                                      receipt::bench::CollectRecords())) {
    return 1;
  }
  return 0;
}

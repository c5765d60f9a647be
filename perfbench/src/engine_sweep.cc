// engine_sweep: the paper's experiment (Table 3, Fig. 9, Figs. 10-11) run
// in-process on the analogue datasets. Each pass decomposes all 12 tip
// targets at t=4 and again at t=1, then runs RECEIPT-W on the 6 analogues
// at t=4, all on one caller-owned WorkspacePool that an untimed t=4 tip and
// wing sweep warmed.
// Every result is compared with BUP / WING-BUP numbers computed in set-up.
//
// Traced runs replace the one-call drivers with the same sequence of public
// calls they make (SwappedCopy, ReceiptCd, ReceiptFd; ReceiptWingCoarse,
// ReceiptWingFine) and time each call, so the phase times plus
// tip.unattributed_s add up to the sweep time.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "tip/receipt_cd.h"
#include "tip/receipt_fd.h"
#include "util/timer.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"
#include "workloads.h"

namespace perfbench {
namespace {

using receipt::BipartiteGraph;
using receipt::Count;
using receipt::PeelStats;
using receipt::Side;
using receipt::WallTimer;

constexpr int kThreads = 4;
constexpr int kPartitions = 150;
constexpr int kSetupRepeats = 3;
constexpr int kOracleThreads = 4;
/// Seconds of --seconds per measured pass (one pass takes ~6.9 s on a
/// 4-vCPU Xeon VM); the pass count is fixed by --seconds, not by how fast
/// passes run, so every run of a setting has the same number of samples.
constexpr double kSecondsPerPass = 7.0;
/// A target's CD counts as an excursion above this multiple of its median.
constexpr double kExcursionFactor = 5.0;

struct Target {
  std::string label;  // "ItU", ...
  size_t analogue = 0;
  Side side = Side::kU;
};

/// One decomposition's timings. Phase fields are filled only when traced;
/// cd_peel_s (the engine's own CD figure) always is.
struct Timing {
  double total_s = 0;
  double transpose_s = 0;
  double count_s = 0;
  double cd_s = 0;
  double fd_s = 0;
  double cd_peel_s = 0;
  PeelStats stats;
};

/// Per-sweep sums over its decompositions.
struct SweepTotals {
  double seconds = 0;
  double transpose_s = 0;
  double count_s = 0;
  double cd_s = 0;
  double fd_s = 0;
  double sync_rounds = 0;
  double wedges_counting = 0;
  double wedges_cd = 0;
  double wedges_fd = 0;
  double wedges = 0;

  void Add(const Timing& t) {
    seconds += t.total_s;
    transpose_s += t.transpose_s;
    count_s += t.count_s;
    cd_s += t.cd_s;
    fd_s += t.fd_s;
    sync_rounds += static_cast<double>(t.stats.sync_rounds);
    wedges_counting += static_cast<double>(t.stats.wedges_counting);
    wedges_cd += static_cast<double>(t.stats.wedges_cd);
    wedges_fd += static_cast<double>(t.stats.wedges_fd);
    wedges += static_cast<double>(t.stats.TotalWedges());
  }
};

std::vector<BipartiteGraph> MakeAnalogues() {
  std::vector<BipartiteGraph> graphs;
  for (const std::string& name : receipt::PaperAnalogueNames()) {
    graphs.push_back(receipt::MakePaperAnalogue(name));
  }
  return graphs;
}

Timing DecomposeTip(const BipartiteGraph& graph, Side side, int threads,
                    receipt::engine::WorkspacePool& pool, bool traced,
                    std::vector<Count>* numbers) {
  receipt::TipOptions options;
  options.side = side;
  options.num_threads = threads;
  options.num_partitions = kPartitions;
  options.workspace_pool = &pool;
  Timing timing;
  if (!traced) {
    const WallTimer timer;
    receipt::TipResult result = receipt::ReceiptDecompose(graph, options);
    timing.total_s = timer.Seconds();
    timing.stats = result.stats;
    timing.cd_peel_s = result.stats.seconds_cd;
    *numbers = std::move(result.tip_numbers);
    return timing;
  }
  // The same calls ReceiptDecompose makes, each timed.
  const WallTimer total;
  {
    WallTimer phase;
    const BipartiteGraph swapped =
        side == Side::kV ? graph.SwappedCopy() : BipartiteGraph();
    const BipartiteGraph& g = side == Side::kV ? swapped : graph;
    timing.transpose_s = phase.Seconds();
    numbers->assign(g.num_u(), 0);
    phase.Reset();
    const receipt::CdResult cd =
        receipt::ReceiptCd(g, options, pool, &timing.stats);
    const double cd_call_s = phase.Seconds();
    phase.Reset();
    receipt::ReceiptFd(g, cd, options, pool, *numbers, &timing.stats);
    timing.fd_s = phase.Seconds();
    timing.count_s = timing.stats.seconds_counting;
    timing.cd_s = cd_call_s - timing.count_s;
  }
  timing.total_s = total.Seconds();
  timing.cd_peel_s = timing.stats.seconds_cd;
  return timing;
}

Timing DecomposeWing(const BipartiteGraph& graph,
                     receipt::engine::WorkspacePool& pool, bool traced,
                     std::vector<Count>* numbers) {
  receipt::ReceiptWingOptions options;
  options.num_threads = kThreads;
  options.num_partitions = kPartitions;
  options.workspace_pool = &pool;
  Timing timing;
  if (!traced) {
    const WallTimer timer;
    receipt::WingResult result = receipt::ReceiptWingDecompose(graph, options);
    timing.total_s = timer.Seconds();
    timing.stats = result.stats;
    *numbers = std::move(result.wing_numbers);
    return timing;
  }
  const WallTimer total;
  {
    numbers->assign(graph.num_edges(), 0);
    WallTimer phase;
    const auto coarse =
        receipt::ReceiptWingCoarse(graph, options, &timing.stats);
    const double coarse_call_s = phase.Seconds();
    phase.Reset();
    receipt::ReceiptWingFine(graph, coarse, options, *numbers, &timing.stats,
                             {});
    timing.fd_s = phase.Seconds();
    timing.count_s = timing.stats.seconds_counting;
    timing.cd_s = coarse_call_s - timing.count_s;
  }
  timing.total_s = total.Seconds();
  return timing;
}

/// The oracle: BUP numbers for every tip target and WING-BUP numbers for
/// every analogue, computed on kOracleThreads threads, longest jobs first.
struct Oracle {
  std::vector<std::vector<Count>> tips;   ///< by target index
  std::vector<std::vector<Count>> wings;  ///< by analogue index
};

Oracle ComputeOracle(const std::vector<BipartiteGraph>& graphs,
                     const std::vector<Target>& targets) {
  Oracle oracle;
  oracle.tips.resize(targets.size());
  oracle.wings.resize(graphs.size());
  const size_t jobs = targets.size() + graphs.size();
  std::atomic<size_t> next{0};
  const auto work = [&] {
    // Claimed in reverse so the WING-BUP runs, the longest, go first.
    for (size_t claimed = next.fetch_add(1); claimed < jobs;
         claimed = next.fetch_add(1)) {
      const size_t job = jobs - 1 - claimed;
      if (job < targets.size()) {
        receipt::TipOptions options;
        options.side = targets[job].side;
        oracle.tips[job] =
            receipt::BupDecompose(graphs[targets[job].analogue], options)
                .tip_numbers;
      } else {
        oracle.wings[job - targets.size()] =
            receipt::WingDecompose(graphs[job - targets.size()]).wing_numbers;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kOracleThreads; ++i) threads.emplace_back(work);
  for (std::thread& thread : threads) thread.join();
  return oracle;
}

/// Targets in the paper's column order, then shuffled by the seed so each
/// seed decomposes them in its own order.
std::vector<Target> SeededTargets(uint64_t seed) {
  std::vector<Target> targets;
  const auto& names = receipt::PaperAnalogueNames();
  for (size_t i = 0; i < names.size(); ++i) {
    std::string label = names[i];
    label[0] = static_cast<char>(label[0] - 'a' + 'A');
    targets.push_back({label + "U", i, Side::kU});
    targets.push_back({label + "V", i, Side::kV});
  }
  std::mt19937_64 rng(seed);
  std::shuffle(targets.begin(), targets.end(), rng);
  return targets;
}

/// The sweep with the median total time (the lower one of an even count).
const SweepTotals& MedianSweep(const std::vector<SweepTotals>& sweeps) {
  std::vector<const SweepTotals*> order;
  for (const SweepTotals& s : sweeps) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const SweepTotals* a, const SweepTotals* b) {
              return a->seconds < b->seconds;
            });
  return *order[(order.size() - 1) / 2];
}

/// Counts (target, pass) pairs whose CD time exceeds kExcursionFactor times
/// that target's median over the passes.
int CountExcursions(const std::vector<std::vector<double>>& cd_by_target) {
  int excursions = 0;
  for (const std::vector<double>& samples : cd_by_target) {
    const double median = Median(samples);
    for (const double s : samples) {
      if (s > kExcursionFactor * median) ++excursions;
    }
  }
  return excursions;
}

}  // namespace

Outcome RunEngineSweep(const RunConfig& config) {
  Outcome outcome;

  // Set-up: build the six analogue graphs (CSR construction and degree
  // ranking), several times; the median is setup_s.
  std::vector<double> setup_times;
  std::vector<BipartiteGraph> graphs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const WallTimer timer;
    graphs = MakeAnalogues();
    setup_times.push_back(timer.Seconds());
  }
  const std::vector<Target> targets = SeededTargets(config.seed);

  // The oracle, then one untimed t=4 tip and wing sweep that warms the pool
  // (and is checked like every other).
  const Oracle oracle = ComputeOracle(graphs, targets);
  const std::vector<std::vector<Count>>& expected_tips = oracle.tips;
  const std::vector<std::vector<Count>>& expected_wings = oracle.wings;
  receipt::engine::WorkspacePool pool;
  std::vector<Count> numbers;
  for (size_t t = 0; t < targets.size(); ++t) {
    DecomposeTip(graphs[targets[t].analogue], targets[t].side, kThreads, pool,
                 config.trace, &numbers);
    if (numbers != expected_tips[t]) {
      outcome.Problem("warm-up tip numbers of " + targets[t].label +
                      " differ from BUP");
    }
  }
  for (size_t a = 0; a < graphs.size(); ++a) {
    DecomposeWing(graphs[a], pool, config.trace, &numbers);
    if (numbers != expected_wings[a]) {
      outcome.Problem("warm-up wing numbers of " +
                      receipt::PaperAnalogueNames()[a] +
                      " differ from WING-BUP");
    }
  }
  const uint64_t growths_before = pool.TotalGrowths();
  ResetPeakRss();

  const int passes =
      std::max(1, static_cast<int>(config.seconds / kSecondsPerPass));
  LatencySamples tip_sweep_ms;
  LatencySamples wing_sweep_ms;
  std::vector<SweepTotals> t4_sweeps;
  std::vector<SweepTotals> t1_sweeps;
  std::vector<SweepTotals> wing_sweeps;
  std::vector<std::vector<double>> cd_t4(targets.size());
  std::vector<std::vector<double>> cd_t1(targets.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (const int threads : {kThreads, 1}) {
      SweepTotals sweep;
      for (size_t t = 0; t < targets.size(); ++t) {
        const Timing timing =
            DecomposeTip(graphs[targets[t].analogue], targets[t].side,
                         threads, pool, config.trace, &numbers);
        ++outcome.attempted;
        if (numbers != expected_tips[t]) {
          outcome.Problem("t=" + std::to_string(threads) + " tip numbers of " +
                          targets[t].label + " differ from BUP");
        }
        sweep.Add(timing);
        (threads == 1 ? cd_t1 : cd_t4)[t].push_back(timing.cd_peel_s);
      }
      if (threads == kThreads) tip_sweep_ms.Add(sweep.seconds * 1e3);
      (threads == kThreads ? t4_sweeps : t1_sweeps).push_back(sweep);
    }
    SweepTotals sweep;
    for (size_t a = 0; a < graphs.size(); ++a) {
      const Timing timing =
          DecomposeWing(graphs[a], pool, config.trace, &numbers);
      ++outcome.attempted;
      if (numbers != expected_wings[a]) {
        outcome.Problem("wing numbers of " + receipt::PaperAnalogueNames()[a] +
                        " differ from WING-BUP");
      }
      sweep.Add(timing);
    }
    wing_sweep_ms.Add(sweep.seconds * 1e3);
    wing_sweeps.push_back(sweep);
  }

  const double tip_sweep_s = tip_sweep_ms.Median() / 1e3;
  const double tip_sweep_t1_s = MedianSweep(t1_sweeps).seconds;
  const double wing_sweep_s = wing_sweep_ms.Median() / 1e3;
  const double speedup = tip_sweep_t1_s / tip_sweep_s;
  const int excursions = CountExcursions(cd_t4) + CountExcursions(cd_t1);

  MetricSet& e2e = outcome.end_to_end;
  e2e.Set("setup_s", Median(setup_times), "s");
  e2e.Set("main_per_s", static_cast<double>(targets.size()) / tip_sweep_s,
          "1/s");
  e2e.Set("main_p50_ms", tip_sweep_ms.Median(), "ms");

  e2e.Set("side_per_s", static_cast<double>(graphs.size()) / wing_sweep_s,
          "1/s");
  e2e.Set("side_p50_ms", wing_sweep_ms.Median(), "ms");


  // Every phase figure comes from one sweep, the median one, so that
  // transpose + count + cd + fd + unattributed == tip.sweep_s exactly.
  const SweepTotals& t4 = MedianSweep(t4_sweeps);
  const SweepTotals& t1 = MedianSweep(t1_sweeps);
  const SweepTotals& wing = MedianSweep(wing_sweeps);
  MetricSet& layer = outcome.per_layer;
  layer.Set("tip.sweep_s", t4.seconds, "s");
  layer.Set("graph.transpose_s", t4.transpose_s, "s");
  layer.Set("tip.count_s", t4.count_s, "s");
  layer.Set("tip.cd_s", t4.cd_s, "s");
  layer.Set("tip.fd_s", t4.fd_s, "s");
  layer.Set("tip.unattributed_s",
            t4.seconds - t4.transpose_s - t4.count_s - t4.cd_s - t4.fd_s, "s");
  layer.Set("tip.cd_s_t1", t1.cd_s, "s");
  layer.Set("tip.fd_s_t1", t1.fd_s, "s");
  layer.Set("tip.sync_rounds", t4.sync_rounds, "count");
  layer.Set("tip.cd_us_per_round",
            t4.sync_rounds > 0 ? t4.cd_s * 1e6 / t4.sync_rounds : 0, "us");
  layer.Set("tip.wedges_counting", t4.wedges_counting, "count");
  layer.Set("tip.wedges_cd", t4.wedges_cd, "count");
  layer.Set("tip.wedges_fd", t4.wedges_fd, "count");
  layer.Set("tip.cd_excursions", excursions, "count");
  layer.Set("tip.speedup_t4", speedup, "x");
  layer.Set("wing.sweep_s", wing.seconds, "s");
  layer.Set("wing.count_s", wing.count_s, "s");
  layer.Set("wing.cd_s", wing.cd_s, "s");
  layer.Set("wing.fd_s", wing.fd_s, "s");
  layer.Set("wing.sync_rounds", wing.sync_rounds, "count");
  layer.Set("wing.wedges", wing.wedges, "count");
  layer.Set("engine.workspace_growths",
            static_cast<double>(pool.TotalGrowths() - growths_before),
            "count");
  layer.Set("main.tail_ms", tip_sweep_ms.Tail(), "ms");
  layer.Set("side.tail_ms", wing_sweep_ms.Tail(), "ms");
  layer.Set("main.samples", static_cast<double>(tip_sweep_ms.size()), "count");
  layer.Set("side.samples", static_cast<double>(wing_sweep_ms.size()), "count");
  layer.Set("traced.main_p50_ms", tip_sweep_ms.Median(), "ms");
  layer.Set("traced.side_p50_ms", wing_sweep_ms.Median(), "ms");

  std::printf("engine_sweep: %d passes of 12 tip targets (t=4, t=1) + 6 "
              "wing analogues (t=4), P=%d\n",
              passes, kPartitions);
  PrintHuman("tip_sweep_s", tip_sweep_s, "s");
  PrintHuman("tip_sweep_t1_s", tip_sweep_t1_s, "s");
  PrintHuman("tip_speedup_t4", speedup, "x");
  PrintHuman("wing_sweep_s", wing_sweep_s, "s");
  PrintHuman("tip_sweep_max_s", tip_sweep_ms.Tail() / 1e3, "s");
  PrintHuman("wing_sweep_max_s", wing_sweep_ms.Tail() / 1e3, "s");
  PrintHuman("sweep_samples", static_cast<double>(tip_sweep_ms.size()),
             "count");
  PrintHuman("tip_cd_excursions", excursions, "count");
  PrintHuman("setup_s", Median(setup_times), "s");
  return outcome;
}

}  // namespace perfbench

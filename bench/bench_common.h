#ifndef RECEIPT_BENCH_BENCH_COMMON_H_
#define RECEIPT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "receipt/receipt_lib.h"
#include "util/timer.h"

namespace receipt::bench {

// Benchmarks fold wedge/butterfly counters across phases and datasets; the
// paper's magnitudes (tip numbers to 3×10^12, wedges to 10^14) require
// 64-bit accumulation everywhere. Pin the type so a future narrowing of
// Count trips here instead of silently truncating bench output.
static_assert(std::is_same_v<Count, uint64_t>,
              "bench counters accumulate Count and assume 64 bits");

/// Cached access to the six paper-analogue datasets ("it" … "tr"). Graphs
/// are generated once per process.
const BipartiteGraph& Dataset(const std::string& name);

/// One decomposition target: dataset + side, labelled like the paper
/// ("ItU", "TrV", …).
struct Target {
  std::string label;
  std::string dataset;
  Side side;
};

/// All 12 targets in Table 2/3 column order.
std::vector<Target> AllTargets();

/// Thread count for "parallel" bench configurations. Defaults to 4
/// (oversubscribed on this single-core container — see EXPERIMENTS.md);
/// override with the RECEIPT_BENCH_THREADS environment variable.
int DefaultThreads();

/// Default partition count (the paper's P = 150 is tuned for graphs with
/// 10^5-10^8 wedge-heavy vertices; our scaled analogues use 30 unless a
/// bench sweeps P explicitly). Override with RECEIPT_BENCH_PARTITIONS.
int DefaultPartitions();

/// The paper's reported Table 3 numbers for side-by-side printing.
/// Times in seconds; wedges in billions; rho in rounds. Negative values
/// mean "not reported" (out-of-memory / did-not-finish entries).
struct PaperTable3Row {
  const char* label;
  double t_pvbcnt;
  double t_bup;
  double t_parb;
  double t_receipt;
  double wedges_bup_billion;      // ParB traverses the same wedges as BUP
  double wedges_receipt_billion;
  double rho_parb;
  double rho_receipt;
};

/// Lookup by target label ("ItU" …). Returns nullptr for unknown labels.
const PaperTable3Row* FindPaperRow(const std::string& label);

/// The paper's Table 2 statistics (for the shape comparison in Table 2's
/// reproduction): butterflies and wedges in billions, max tip numbers.
struct PaperTable2Row {
  const char* dataset;  // "it" ...
  double butterflies_billion;
  double wedges_billion;
  double theta_max_u;
  double theta_max_v;
};
const PaperTable2Row* FindPaperTable2Row(const std::string& dataset);

/// The ablation configurations of Figs. 6-7: RECEIPT (all optimizations),
/// RECEIPT- (no DGM) and RECEIPT-- (no DGM, no HUC).
enum class AblationConfig { kFull, kNoDgm, kNeither };

/// Runs ReceiptDecompose on a target under one ablation configuration with
/// the default thread/partition settings and returns its stats.
PeelStats RunReceiptAblation(const Target& target, AblationConfig config);

/// Prints a horizontal rule of width 100.
void PrintRule(char fill = '-');

/// Prints the standard bench header naming the table/figure reproduced.
void PrintHeader(const std::string& title);

// ---------------------------------------------------------------------------
// Machine-readable output: every bench can take `--json <path>` and emit its
// per-phase timings/counters as a BENCH_*.json trajectory file.
// ---------------------------------------------------------------------------

/// Strips a `--json <path>` argument pair out of (argc, argv) — call before
/// handing argv to google-benchmark, which rejects unknown flags. Returns
/// the path, or "" when the flag is absent.
std::string ConsumeJsonFlag(int* argc, char** argv);

/// One measurement row of a bench's JSON output: a name plus integer
/// counters and floating-point values (kept separate so counters round-trip
/// exactly).
struct JsonRecord {
  std::string name;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> values;
};

/// Appends the per-phase timings and counters of `stats` to `record` —
/// wedges by phase, sync rounds, active-set build counters and
/// the per-phase seconds.
void AppendPeelStats(const PeelStats& stats, JsonRecord* record);

/// Writes `{"bench": <bench>, "records": [...]}` to `path`. Returns false
/// (with a message on stderr) when the file cannot be written.
bool WriteBenchJson(const std::string& path, const std::string& bench,
                    const std::vector<JsonRecord>& records);

}  // namespace receipt::bench

#endif  // RECEIPT_BENCH_BENCH_COMMON_H_

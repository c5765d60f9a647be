#ifndef RECEIPT_PERFBENCH_REPORT_H_
#define RECEIPT_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One named measurement with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metric set; setting a name twice overwrites it.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Latency samples of one operation class, in milliseconds. A failed
/// operation is recorded as +inf, so it misses every latency limit and
/// pushes the percentiles up instead of vanishing from them.
class LatencySamples {
 public:
  /// `done_s`: when the operation completed, in seconds since the start of
  /// the measured window (used by the windowed figures).
  void Add(double ms, double done_s = 0) {
    values_.push_back(ms);
    done_s_.push_back(done_s);
  }
  void AddFailure(double done_s = 0);
  void Append(const LatencySamples& other);

  size_t size() const { return values_.size(); }

  // Windowed figures split [0, seconds) into `windows` equal slices by
  // completion time, compute the figure per slice, and report the median
  // over the slices, so a few seconds of interference from outside the
  // process move them less than one figure over the whole run would. With
  // fewer than kMinSamplesPerSlice samples per slice, one slice is used.

  /// Successful operations per second.
  double WindowedRate(double seconds, int windows) const;
  /// Median latency.
  double WindowedMedian(double seconds, int windows) const;
  /// Tail() latency (so the percentile depends on the slice's size).
  double WindowedTail(double seconds, int windows) const;

  double Median() const;
  /// p99, or — when fewer than ten samples would lie beyond p99 — the
  /// highest order statistic that still has ten samples beyond it (the
  /// largest sample when there are ten or fewer).
  double Tail() const;
  /// The percentile Tail() reports (99 when the sample supports p99).
  double TailPercentile() const;

 private:
  size_t TailIndex() const;
  std::vector<double> Sorted() const;
  std::vector<LatencySamples> Slices(double seconds, int windows) const;

  static constexpr size_t kMinSamplesPerSlice = 100;

  std::vector<double> values_;
  std::vector<double> done_s_;
};

/// Median (mean of the middle pair when even; 0 for an empty vector).
double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Restarts the VmHWM peak at the current resident size, so PeakRssMb()
/// covers the measured work and not the benchmark's own set-up and oracle.
/// Best effort: without a writable /proc/self/clear_refs the peak simply
/// covers the whole process.
void ResetPeakRss();

/// What one workload run produced.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  /// Correctness problems found, printed to stderr; any entry makes the
  /// run incorrect.
  std::vector<std::string> problems;

  void Problem(const std::string& what);
};

/// Prints `name = value unit` for a human reader (stdout, before the
/// result line).
void PrintHuman(const std::string& name, double value,
                const std::string& unit);

/// Prints the single-line JSON result: correct/attempted/failed plus every
/// metric of `metrics`, values with full precision.
void PrintResult(const Outcome& outcome, const MetricSet& metrics);

}  // namespace perfbench

#endif  // RECEIPT_PERFBENCH_REPORT_H_

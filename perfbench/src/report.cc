#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

namespace perfbench {

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void LatencySamples::AddFailure(double done_s) {
  Add(std::numeric_limits<double>::infinity(), done_s);
}

void LatencySamples::Append(const LatencySamples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  done_s_.insert(done_s_.end(), other.done_s_.begin(), other.done_s_.end());
}

std::vector<LatencySamples> LatencySamples::Slices(double seconds,
                                                   int windows) const {
  // A slice needs enough samples for its own median to be steadier than
  // the whole run's; a sparse operation is summarized over the whole run.
  if (values_.size() < kMinSamplesPerSlice * static_cast<size_t>(windows)) {
    windows = 1;
  }
  const double width = seconds / windows;
  std::vector<LatencySamples> slices(static_cast<size_t>(windows));
  for (size_t i = 0; i < values_.size(); ++i) {
    // An operation finishing just after the window closed counts toward
    // the last slice: it was sent inside the window.
    const size_t w = std::min(static_cast<size_t>(done_s_[i] / width),
                              slices.size() - 1);
    slices[w].Add(values_[i], done_s_[i]);
  }
  return slices;
}

double LatencySamples::WindowedRate(double seconds, int windows) const {
  std::vector<double> rates;
  for (const LatencySamples& slice : Slices(seconds, windows)) {
    std::vector<double> done;
    for (size_t i = 0; i < slice.values_.size(); ++i) {
      if (std::isfinite(slice.values_[i])) done.push_back(slice.done_s_[i]);
    }
    std::sort(done.begin(), done.end());
    // Completions per second between the slice's first and last one, so a
    // slow, paced operation does not read as a whole number per slice.
    const double span = done.size() >= 2 ? done.back() - done.front() : 0;
    rates.push_back(span > 0 ? static_cast<double>(done.size() - 1) / span
                             : static_cast<double>(done.size()) * windows /
                                   seconds);
  }
  return perfbench::Median(rates);
}

double LatencySamples::WindowedMedian(double seconds, int windows) const {
  std::vector<double> medians;
  for (const LatencySamples& slice : Slices(seconds, windows)) {
    medians.push_back(slice.Median());
  }
  return perfbench::Median(medians);
}

double LatencySamples::WindowedTail(double seconds, int windows) const {
  std::vector<double> tails;
  for (const LatencySamples& slice : Slices(seconds, windows)) {
    tails.push_back(slice.Tail());
  }
  return perfbench::Median(tails);
}

std::vector<double> LatencySamples::Sorted() const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

double LatencySamples::Median() const {
  return values_.empty() ? 0.0 : perfbench::Median(values_);
}

size_t LatencySamples::TailIndex() const {
  const size_t n = values_.size();
  if (n <= 10) return n - 1;
  // Nearest-rank p99, capped so that at least ten samples lie above it.
  const size_t p99 = static_cast<size_t>(std::ceil(0.99 * n)) - 1;
  return std::min(p99, n - 11);
}

double LatencySamples::Tail() const {
  if (values_.empty()) return 0.0;
  return Sorted()[TailIndex()];
}

double LatencySamples::TailPercentile() const {
  if (values_.empty()) return 0.0;
  return 100.0 * static_cast<double>(TailIndex() + 1) /
         static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak resident set size
}

void Outcome::Problem(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

void PrintHuman(const std::string& name, double value,
                const std::string& unit) {
  std::printf("  %-28s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

void PrintResult(const Outcome& outcome, const MetricSet& metrics) {
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics.metrics()) {
    // JSON has no infinity; a tail made of failed operations reads as a
    // huge latency instead.
    const double value = std::isfinite(metric.value) ? metric.value : 1e300;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + metric.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

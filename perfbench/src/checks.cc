#include "checks.h"

#include <cstdio>
#include <map>
#include <utility>

#include "graph/generators.h"
#include "tip/receipt.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

using receipt::cluster::TraceOp;

std::string_view NumbersSegment(std::string_view body) {
  constexpr std::string_view kKey = "\"numbers\":";
  const size_t key = body.find(kKey);
  if (key == std::string_view::npos) return {};
  const size_t begin = key + kKey.size();
  const size_t end = body.find(']', begin);
  if (end == std::string_view::npos || body[begin] != '[') return {};
  return body.substr(begin, end + 1 - begin);
}

bool UintField(std::string_view body, std::string_view key, uint64_t* out) {
  std::string quoted = "\"";
  quoted.append(key).append("\":");
  size_t pos = body.find(quoted);
  if (pos == std::string_view::npos) return false;
  pos += quoted.size();
  uint64_t value = 0;
  bool any = false;
  for (; pos < body.size() && body[pos] >= '0' && body[pos] <= '9'; ++pos) {
    value = value * 10 + static_cast<uint64_t>(body[pos] - '0');
    any = true;
  }
  if (any) *out = value;
  return any;
}

std::string SerializeNumbers(const std::vector<receipt::Count>& numbers) {
  receipt::util::JsonWriter writer;
  writer.BeginArray();
  for (const receipt::Count n : numbers) writer.Uint(n);
  writer.EndArray();
  return writer.Take();
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

bool FlipOneNumber(std::string* body) {
  const std::string_view segment = NumbersSegment(*body);
  if (segment.empty()) return false;
  const size_t begin = static_cast<size_t>(segment.data() - body->data());
  for (size_t i = begin; i < begin + segment.size(); ++i) {
    char& c = (*body)[i];
    if (c >= '0' && c <= '9') {
      c = c == '9' ? '8' : static_cast<char>(c + 1);
      return true;
    }
  }
  return false;
}

bool MakeStale(std::vector<TraceOp>* ops) {
  // (client, graph) -> index of the first read of that stream.
  std::map<std::pair<std::string, std::string>, size_t> first_read;
  for (size_t i = 0; i < ops->size(); ++i) {
    TraceOp& op = (*ops)[i];
    if (!op.read) continue;
    const auto [it, inserted] = first_read.emplace(
        std::make_pair(op.client, op.graph), i);
    if (!inserted && op.epoch > (*ops)[it->second].epoch) {
      std::swap(op.epoch, (*ops)[it->second].epoch);
      return true;
    }
  }
  if (first_read.empty()) return false;
  (*ops)[first_read.begin()->second].epoch = 0;
  return true;
}

std::string CheckOpLog(const std::vector<TraceOp>& ops) {
  const auto violation = receipt::cluster::CheckPramConsistency(ops);
  return violation ? receipt::cluster::FormatViolation(*violation)
                   : std::string();
}

bool RunSelfTest() {
  bool ok = true;

  // A decompose answer that matches the oracle byte for byte, then the
  // same answer with one number altered.
  receipt::TipOptions options;
  options.num_threads = 2;
  options.num_partitions = 8;
  const std::vector<receipt::Count> numbers =
      receipt::ReceiptDecompose(receipt::RandomBipartite(80, 60, 600, 7),
                                options)
          .tip_numbers;
  const std::string expected = SerializeNumbers(numbers);
  std::string body = "{\"status\":\"ok\",\"graph_epoch\":3,\"numbers\":" +
                     expected + ",\"stats\":{\"sync_rounds\":[1]}}";
  if (NumbersSegment(body) != expected) {
    std::printf("self-test: an intact answer was rejected\n");
    ok = false;
  }
  if (!FlipOneNumber(&body) || NumbersSegment(body) == expected) {
    std::printf("self-test: a flipped number went unnoticed\n");
    ok = false;
  }

  // An op log the way the benchmark records one: registration, a writer
  // sealing twice, a reader following the epochs; then the stale copy.
  const std::string graph = "g";
  const auto op = [&graph](std::string client, bool read, uint64_t epoch) {
    TraceOp trace;
    trace.client = std::move(client);
    trace.read = read;
    trace.graph = graph;
    trace.epoch = epoch;
    return trace;
  };
  std::vector<TraceOp> ops = {
      op("setup", false, 1), op("writer-0", false, 1),
      op("writer-0", false, 2), op("writer-0", false, 3),
      op("reader-0", true, 1), op("reader-0", true, 2),
      op("reader-0", true, 2), op("reader-0", true, 3)};
  if (const std::string violation = CheckOpLog(ops); !violation.empty()) {
    std::printf("self-test: a consistent op log was rejected:\n%s\n",
                violation.c_str());
    ok = false;
  }
  if (!MakeStale(&ops) || CheckOpLog(ops).empty()) {
    std::printf("self-test: a stale read went unnoticed\n");
    ok = false;
  }
  return ok;
}

}  // namespace perfbench

// receipt_cli — command-line driver for the library: generate datasets,
// inspect statistics, run any decomposition algorithm and export results,
// serve decompositions over HTTP/JSON (alone, or as a cluster member behind
// `router`), and post live edge updates to a server. `receipt_cli help`
// lists every command with every flag it accepts.
//
// Each command declares its flags in one table below, checked before any
// graph loads or any thread starts: an unknown flag, a stray argument, or a
// malformed or out-of-range value exits 1 with a message naming it. help is
// printed from the same tables.
//
// Exit code 0 on success, 1 on usage errors, 2 on IO failures.

#include <csignal>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/http_client.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "receipt/receipt_lib.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "util/json.h"
#include "util/timer.h"

namespace {

using namespace receipt;

/// One flag of one command: its name, what its value may be, and what it
/// reads as when absent.
struct Flag {
  enum Kind { kString, kInt, kReal, kSwitch, kOnOff, kEnum };
  const char* name;
  Kind kind;
  /// An absent flag's value as typed; "" = none (the command asks Given()).
  const char* fallback;
  const char* placeholder;  ///< for help; kEnum: the values, '|'-separated
  int64_t min = 0;          ///< inclusive bounds of a kInt or kReal value
  int64_t max = 0;
};

/// The request parser's bound on partitions (service_types.cc).
constexpr int64_t kMaxPartitions = int64_t{1} << 20;
constexpr int64_t kMaxThreads = 1024;
constexpr int64_t kMaxPoolThreads = 256;  ///< workers, HTTP handlers, clients
constexpr int64_t kMaxTimeoutMs = 600000;

/// On/off words: on, 1, true / off, 0, false.
bool ParseOnOffWord(std::string_view word, bool* out) {
  *out = word == "on" || word == "1" || word == "true";
  return *out || word == "off" || word == "0" || word == "false";
}

template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

std::string Range(const Flag& flag) {
  return "in [" + std::to_string(flag.min) + ", " + std::to_string(flag.max) +
         "]";
}

/// Why `value` is not a valid value of `flag`, or "" when it is.
std::string CheckValue(const Flag& flag, const std::string& value) {
  bool on = false;
  int64_t integer = 0;
  double real = 0.0;
  switch (flag.kind) {
    case Flag::kString:
      return "";
    case Flag::kSwitch:
      return value.empty() ? "" : "takes no value";
    case Flag::kOnOff:
      return ParseOnOffWord(value, &on) ? "" : "takes on or off";
    case Flag::kEnum:
      return ("|" + std::string(flag.placeholder) + "|")
                         .find("|" + value + "|") != std::string::npos
                 ? ""
                 : std::string("takes one of ") + flag.placeholder;
    case Flag::kInt:
      return ParseNumber(value, &integer) && integer >= flag.min &&
                     integer <= flag.max
                 ? ""
                 : "takes an integer " + Range(flag);
    case Flag::kReal:
      return ParseNumber(value, &real) &&
                     real >= static_cast<double>(flag.min) &&
                     real <= static_cast<double>(flag.max)
                 ? ""
                 : "takes a number " + Range(flag);
  }
  return "";
}

/// A command's flags, parsed and checked against its table.
class Flags {
 public:
  explicit Flags(std::span<const Flag> table) : table_(table) {}

  /// Reads `args` as `--name value` / `--name=value` (a switch takes no
  /// value; an on/off flag alone means on). Prints one line per mistake —
  /// unknown flag, stray argument, missing, malformed or out-of-range
  /// value — and returns false if there was any.
  bool Parse(const char* command, std::span<char*> args) {
    bool ok = true;
    const auto fail = [&](const std::string& message) {
      std::fprintf(stderr, "receipt_cli %s: %s\n", command, message.c_str());
      ok = false;
    };
    for (size_t i = 0; i < args.size(); ++i) {
      std::string_view arg = args[i];
      if (arg.substr(0, 2) != "--") {
        fail("stray argument '" + std::string(arg) +
             "' (arguments after the command are --flag VALUE pairs)");
        continue;
      }
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      const std::string name(arg.substr(0, eq));
      const Flag* flag = Find(name);
      const bool next_is_value =
          i + 1 < args.size() &&
          std::string_view(args[i + 1]).substr(0, 2) != "--";
      if (flag == nullptr) {
        fail("unknown flag --" + name + " (receipt_cli help lists them)");
        // Its value, if any, is not a stray argument of its own.
        if (eq == std::string_view::npos && next_is_value) ++i;
        continue;
      }
      const bool takes_value = flag->kind != Flag::kSwitch;
      std::string value = flag->kind == Flag::kOnOff ? "on" : "";  // alone
      if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
      } else if (takes_value && next_is_value) {
        value = args[++i];
      } else if (takes_value && flag->kind != Flag::kOnOff) {
        fail("--" + name + " needs a value");
        continue;
      }
      if (const std::string why = CheckValue(*flag, value); !why.empty()) {
        fail("--" + name + " " + why + ", got '" + value + "'");
        continue;
      }
      given_[name] = std::move(value);
    }
    return ok;
  }

  bool Given(std::string_view name) const {
    Row(name);
    return given_.find(name) != given_.end();
  }

  std::string Str(std::string_view name) const {
    return std::string(Value(name));
  }

  int64_t Int(std::string_view name) const {
    int64_t value = 0;
    ParseNumber(Value(name), &value);
    return value;
  }

  double Real(std::string_view name) const {
    double value = 0.0;
    ParseNumber(Value(name), &value);
    return value;
  }

  /// A switch is on when given; an on/off flag reads its value.
  bool On(std::string_view name) const {
    bool on = Given(name);
    if (Row(name).kind == Flag::kOnOff) ParseOnOffWord(Value(name), &on);
    return on;
  }

 private:
  const Flag* Find(std::string_view name) const {
    for (const Flag& flag : table_) {
      if (name == flag.name) return &flag;
    }
    return nullptr;
  }

  /// Reading a flag the table does not declare is a bug.
  const Flag& Row(std::string_view name) const {
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "receipt_cli: --%.*s is not declared\n",
                   static_cast<int>(name.size()), name.data());
      std::abort();
    }
    return *flag;
  }

  /// The given value, else the fallback.
  std::string_view Value(std::string_view name) const {
    const auto it = given_.find(name);
    return it != given_.end() ? std::string_view(it->second)
                              : std::string_view(Row(name).fallback);
  }

  std::span<const Flag> table_;
  std::map<std::string, std::string, std::less<>> given_;
};

/// False, with a message, unless `name` is a paper analogue.
bool KnownDataset(const std::string& name) {
  const std::vector<std::string>& names = PaperAnalogueNames();
  if (std::find(names.begin(), names.end(), name) != names.end()) return true;
  std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
  return false;
}

bool LoadGraph(const Flags& flags, BipartiteGraph* graph) {
  if (flags.Given("dataset")) {
    const std::string name = flags.Str("dataset");
    if (!KnownDataset(name)) return false;
    *graph = MakePaperAnalogue(name);
    return true;
  }
  const std::string path = flags.Str("input");
  if (path.empty()) {
    std::fprintf(stderr, "need --input FILE or --dataset NAME\n");
    return false;
  }
  std::string error;
  auto loaded = LoadGraphFile(path, &error);
  if (!loaded) {
    std::fprintf(stderr, "failed to load '%s': %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  *graph = std::move(*loaded);
  return true;
}

constexpr Flag kGenerateFlags[] = {
    {"type", Flag::kEnum, "chunglu", "chunglu|random|complete"},
    {"nu", Flag::kInt, "1000", "N", 1, int64_t{1} << 26},
    {"nv", Flag::kInt, "1000", "N", 1, int64_t{1} << 26},
    {"edges", Flag::kInt, "5000", "M", 0, int64_t{1} << 32},
    {"alpha-u", Flag::kReal, "0.5", "A", 0, 16},
    {"alpha-v", Flag::kReal, "0.5", "A", 0, 16},
    {"seed", Flag::kInt, "1", "S", 0, INT64_MAX},
    {"output", Flag::kString, "", "FILE"},
};

int CmdGenerate(const Flags& flags) {
  const std::string output = flags.Str("output");
  if (output.empty()) {
    std::fprintf(stderr, "need --output FILE\n");
    return 1;
  }
  const std::string type = flags.Str("type");
  const VertexId nu = static_cast<VertexId>(flags.Int("nu"));
  const VertexId nv = static_cast<VertexId>(flags.Int("nv"));
  const uint64_t edges = static_cast<uint64_t>(flags.Int("edges"));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));

  BipartiteGraph graph;
  if (type == "chunglu") {
    graph = ChungLuBipartite(nu, nv, edges, flags.Real("alpha-u"),
                             flags.Real("alpha-v"), seed);
  } else if (type == "random") {
    graph = RandomBipartite(nu, nv, edges, seed);
  } else {
    graph = CompleteBipartite(nu, nv);
  }

  const bool ok = output.ends_with(".bin") ? SaveBinary(graph, output)
                                           : SaveKonect(graph, output);
  if (!ok) {
    std::fprintf(stderr, "failed to write '%s'\n", output.c_str());
    return 2;
  }
  std::printf("wrote %s: |U|=%u |V|=%u |E|=%llu\n", output.c_str(),
              graph.num_u(), graph.num_v(),
              static_cast<unsigned long long>(graph.num_edges()));
  return 0;
}

constexpr Flag kStatsFlags[] = {
    {"input", Flag::kString, "", "FILE"},
    {"dataset", Flag::kString, "", "NAME"},
    {"approx-samples", Flag::kInt, "0", "N", 0, int64_t{1} << 32},
};

int CmdStats(const Flags& flags) {
  BipartiteGraph graph;
  if (!LoadGraph(flags, &graph)) return 2;
  std::printf("|U|=%u |V|=%u |E|=%llu dU=%.2f dV=%.2f\n", graph.num_u(),
              graph.num_v(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.AverageDegree(Side::kU), graph.AverageDegree(Side::kV));
  std::printf("wedgesU=%llu wedgesV=%llu counting_bound=%llu\n",
              static_cast<unsigned long long>(graph.TotalWedges(Side::kU)),
              static_cast<unsigned long long>(graph.TotalWedges(Side::kV)),
              static_cast<unsigned long long>(graph.CountingCostBound()));
  const int64_t samples = flags.Int("approx-samples");
  if (samples > 0) {
    const ApproxCountResult approx = ApproxTotalButterflies(
        graph, static_cast<uint64_t>(samples), /*seed=*/17);
    std::printf("approx butterflies=%.0f (rel. std. err %.3f, %llu "
                "samples)\n",
                approx.estimate, approx.relative_std_error,
                static_cast<unsigned long long>(approx.samples));
  } else {
    std::printf("butterflies=%llu\n",
                static_cast<unsigned long long>(TotalButterflies(graph, 4)));
  }
  return 0;
}

/// Writes "i value" lines to --output, if given; 2 if that fails.
int WriteOutput(const Flags& flags, const std::vector<Count>& values,
                const char* what) {
  const std::string path = flags.Str("output");
  if (path.empty()) return 0;
  std::ofstream out(path);
  for (size_t i = 0; i < values.size(); ++i) {
    out << i << " " << values[i] << "\n";
  }
  if (!out) {
    std::fprintf(stderr, "failed to write '%s'\n", path.c_str());
    return 2;
  }
  std::printf("%s numbers written to %s\n", what, path.c_str());
  return 0;
}

constexpr Flag kDecomposeFlags[] = {
    {"input", Flag::kString, "", "FILE"},
    {"dataset", Flag::kString, "", "NAME"},
    {"algo", Flag::kEnum, "receipt", "receipt|bup|parb"},
    {"side", Flag::kEnum, "U", "U|V"},
    {"threads", Flag::kInt, "4", "T", 1, kMaxThreads},
    {"partitions", Flag::kInt, "150", "P", 1, kMaxPartitions},
    {"no-huc", Flag::kSwitch, "", ""},
    {"no-dgm", Flag::kSwitch, "", ""},
    {"output", Flag::kString, "", "FILE"},
};

int CmdDecompose(const Flags& flags) {
  BipartiteGraph graph;
  if (!LoadGraph(flags, &graph)) return 2;

  TipOptions options;
  options.num_threads = static_cast<int>(flags.Int("threads"));
  options.side = flags.Str("side") == "V" ? Side::kV : Side::kU;
  options.num_partitions = static_cast<int>(flags.Int("partitions"));
  options.use_huc = !flags.On("no-huc");
  options.use_dgm = !flags.On("no-dgm");

  const std::string algo = flags.Str("algo");
  const TipResult result = algo == "bup"    ? BupDecompose(graph, options)
                           : algo == "parb" ? ParbDecompose(graph, options)
                                            : ReceiptDecompose(graph, options);

  std::printf("%s on side %s: theta_max=%llu\n%s\n", algo.c_str(),
              SideName(options.side),
              static_cast<unsigned long long>(result.MaxTipNumber()),
              result.stats.ToString().c_str());
  return WriteOutput(flags, result.tip_numbers, "tip");
}

constexpr Flag kWingFlags[] = {
    {"input", Flag::kString, "", "FILE"},
    {"dataset", Flag::kString, "", "NAME"},
    {"parallel", Flag::kSwitch, "", ""},
    {"threads", Flag::kInt, "4", "T", 1, kMaxThreads},
    {"partitions", Flag::kInt, "8", "P", 1, kMaxPartitions},
    {"output", Flag::kString, "", "FILE"},
};

int CmdWing(const Flags& flags) {
  BipartiteGraph graph;
  if (!LoadGraph(flags, &graph)) return 2;
  const int threads = static_cast<int>(flags.Int("threads"));
  WingResult result;
  if (flags.On("parallel")) {
    ReceiptWingOptions options;
    options.num_threads = threads;
    options.num_partitions = static_cast<int>(flags.Int("partitions"));
    result = ReceiptWingDecompose(graph, options);
  } else {
    result = WingDecompose(graph, threads);
  }
  std::printf("wing decomposition: max_wing=%llu\n%s\n",
              static_cast<unsigned long long>(result.MaxWingNumber()),
              result.stats.ToString().c_str());
  return WriteOutput(flags, result.wing_numbers, "wing");
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// Parses "tip-U:150,wing:8" into live-tracking configs (partitions
/// optional; RECEIPT defaults apply when omitted).
bool ParseTrackSpecs(const std::string& list,
                     std::vector<service::LiveConfig>* out) {
  for (const std::string& spec : SplitCommaList(list)) {
    service::LiveConfig config;
    const size_t colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    if (colon != std::string::npos &&
        (!ParseNumber(std::string_view(spec).substr(colon + 1),
                      &config.partitions) ||
         config.partitions < 1 || config.partitions > kMaxPartitions)) {
      std::fprintf(stderr, "track spec '%s': partitions must be in [1, %lld]\n",
                   spec.c_str(), static_cast<long long>(kMaxPartitions));
      return false;
    }
    if (!service::RequestKindFromName(kind, &config.kind)) {
      std::fprintf(stderr,
                   "track spec '%s': kind must be tip-U, tip-V or wing\n",
                   spec.c_str());
      return false;
    }
    out->push_back(config);
  }
  return true;
}

/// Reads an edge-update batch: one update per line, "+ u v" inserts,
/// "- u v" deletes, bare "u v" inserts; '#' starts a comment.
bool ReadUpdateBatch(std::istream& in, std::vector<service::EdgeUpdate>* out) {
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (const size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string first;
    if (!(fields >> first)) continue;  // blank line
    service::EdgeUpdate update;
    long long u = -1;
    long long v = -1;
    if (first == "+" || first == "-") {
      update.insert = first == "+";
      if (!(fields >> u >> v)) u = -1;
    } else {
      update.insert = true;
      u = std::atoll(first.c_str());
      if (first.find_first_not_of("0123456789") != std::string::npos ||
          !(fields >> v)) {
        u = -1;
      }
    }
    std::string extra;
    if (u < 0 || v < 0 || u > UINT32_MAX || v > UINT32_MAX ||
        (fields >> extra)) {
      std::fprintf(stderr, "batch line %zu: expected '[+|-] u v', got '%s'\n",
                   line_number, line.c_str());
      return false;
    }
    update.u = static_cast<VertexId>(u);
    update.v = static_cast<VertexId>(v);
    out->push_back(update);
  }
  return true;
}

/// Posts with a retry budget: transport failures and 429/503 responses are
/// retried with jittered exponential backoff (base * 2^attempt, uniformly
/// jittered into [half, full]), and a server-sent Retry-After floor is
/// honored. Any other status returns immediately. Returns the HTTP status,
/// or 0 with *error set on transport failure.
int HttpPostJsonWithRetry(const std::string& host, uint16_t port,
                          const std::string& path, const std::string& body,
                          int retries, int retry_base_ms,
                          std::string* response_body, std::string* error) {
  // A sealing batch runs the engine before the server answers.
  const cluster::HttpClient client(/*timeout_ms=*/10 * 60 * 1000);
  std::mt19937 rng(std::random_device{}());
  int status = 0;
  for (int attempt = 0; ; ++attempt) {
    error->clear();
    cluster::HttpClientResponse response;
    status = client.Post(host, port, path, body, {}, &response, error)
                 ? response.status
                 : 0;
    if (status == 0 && error->rfind("connect", 0) == 0) {
      *error += " (is `receipt_cli serve --http-port` running?)";
    }
    *response_body = std::move(response.body);
    const auto retry_after = response.headers.find("retry-after");
    const int retry_after_s = retry_after == response.headers.end()
                                  ? 0
                                  : std::atoi(retry_after->second.c_str());
    const bool retryable = status == 0 || status == 429 || status == 503;
    if (!retryable || attempt >= retries) return status;
    const double full_ms = static_cast<double>(retry_base_ms) *
                           static_cast<double>(1u << std::min(attempt, 20));
    std::uniform_real_distribution<double> jitter(full_ms / 2.0, full_ms);
    int64_t sleep_ms = static_cast<int64_t>(jitter(rng));
    sleep_ms = std::max<int64_t>(sleep_ms, int64_t{retry_after_s} * 1000);
    std::fprintf(stderr,
                 "attempt %d/%d: %s; retrying in %lld ms\n", attempt + 1,
                 retries + 1,
                 status == 0 ? error->c_str()
                             : ("HTTP " + std::to_string(status)).c_str(),
                 static_cast<long long>(sleep_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

constexpr Flag kUpdateFlags[] = {
    {"graph", Flag::kString, "", "NAME"},
    {"batch", Flag::kString, "", "FILE|-"},
    {"host", Flag::kString, "127.0.0.1", "H"},
    {"port", Flag::kInt, "8080", "P", 1, 65535},
    {"seal", Flag::kSwitch, "", ""},
    // 0 leaves the count to the server.
    {"threads", Flag::kInt, "0", "T", 0, kMaxThreads},
    {"track", Flag::kString, "", "tip-U:150,wing:8"},
    {"retries", Flag::kInt, "3", "N", 0, 100},
    {"retry-base-ms", Flag::kInt, "100", "MS", 1, 60000},
};

// update: post an edge batch to a running server's live-update endpoint.
int CmdUpdate(const Flags& flags) {
  const std::string graph = flags.Str("graph");
  if (graph.empty()) {
    std::fprintf(stderr, "need --graph NAME\n");
    return 1;
  }
  const std::string batch_path = flags.Str("batch");
  if (batch_path.empty()) {
    std::fprintf(stderr, "need --batch FILE (or - for stdin)\n");
    return 1;
  }
  std::vector<service::EdgeUpdate> updates;
  if (batch_path == "-") {
    if (!ReadUpdateBatch(std::cin, &updates)) return 1;
  } else {
    std::ifstream in(batch_path);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", batch_path.c_str());
      return 2;
    }
    if (!ReadUpdateBatch(in, &updates)) return 1;
  }
  std::vector<service::LiveConfig> track;
  if (!ParseTrackSpecs(flags.Str("track"), &track)) return 1;

  util::JsonWriter writer;
  writer.BeginObject().Key("edges").BeginArray();
  for (const service::EdgeUpdate& update : updates) {
    writer.BeginObject()
        .Key("op").String(update.insert ? "insert" : "delete")
        .Key("u").Uint(update.u)
        .Key("v").Uint(update.v)
        .EndObject();
  }
  writer.EndArray();
  if (flags.On("seal")) writer.Key("seal").Bool(true);
  if (const int64_t threads = flags.Int("threads"); threads > 0) {
    writer.Key("threads").Int(threads);
  }
  if (!track.empty()) {
    writer.Key("track").BeginArray();
    for (const service::LiveConfig& config : track) {
      writer.BeginObject()
          .Key("kind").String(service::RequestKindName(config.kind))
          .Key("partitions").Uint(config.partitions)
          .EndObject();
    }
    writer.EndArray();
  }
  writer.EndObject();

  std::string response_body;
  std::string error;
  const int status = HttpPostJsonWithRetry(
      flags.Str("host"), static_cast<uint16_t>(flags.Int("port")),
      "/v1/graphs/" + graph + "/edges", writer.Take(),
      static_cast<int>(flags.Int("retries")),
      static_cast<int>(flags.Int("retry-base-ms")), &response_body, &error);
  if (status == 0) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("%s\n", response_body.c_str());
  if (status != 200) {
    std::fprintf(stderr, "server answered HTTP %d\n", status);
    return 2;
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void OnStopSignal(int) { g_stop_requested = 1; }

void WaitForStopSignal() {
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("signal received: draining\n");
}

/// Parses a member list and checks `replication` against its size.
bool ParseMembers(const char* flag, const std::string& spec,
                  int64_t replication,
                  std::vector<cluster::ClusterMember>* members) {
  std::string error;
  if (!cluster::ParseClusterMembers(spec, members, &error)) {
    std::fprintf(stderr, "--%s: %s\n", flag, error.c_str());
    return false;
  }
  if (members->empty()) {
    std::fprintf(stderr, "need --%s a=HOST:PORT,b=HOST:PORT,...\n", flag);
    return false;
  }
  if (replication > static_cast<int64_t>(members->size())) {
    std::fprintf(stderr, "--replication %lld exceeds the %zu members\n",
                 static_cast<long long>(replication), members->size());
    return false;
  }
  return true;
}

constexpr Flag kRouterFlags[] = {
    {"members", Flag::kString, "", "a=H:P,b=H:P,..."},
    {"http-port", Flag::kInt, "0", "PORT", 0, 65535},
    {"http-threads", Flag::kInt, "4", "N", 1, kMaxPoolThreads},
    {"replication", Flag::kInt, "2", "R", 1, 64},
    {"trace-log", Flag::kString, "", "FILE"},
    {"health-interval-ms", Flag::kInt, "250", "MS", 0, kMaxTimeoutMs},
    {"peer-timeout-ms", Flag::kInt, "5000", "MS", 1, kMaxTimeoutMs},
};

// router: thin front-end over a replica set (see cluster::Router). Runs
// until SIGINT/SIGTERM, then prints its /statz.
int CmdRouter(const Flags& flags) {
  std::vector<cluster::ClusterMember> members;
  if (!ParseMembers("members", flags.Str("members"),
                    flags.Int("replication"), &members)) {
    return 1;
  }
  cluster::RouterOptions options;
  options.http.port = static_cast<uint16_t>(flags.Int("http-port"));
  options.http.num_threads = static_cast<int>(flags.Int("http-threads"));
  options.replication_factor = static_cast<size_t>(flags.Int("replication"));
  options.peer_timeout_ms = static_cast<int>(flags.Int("peer-timeout-ms"));
  options.health_interval_ms =
      static_cast<int>(flags.Int("health-interval-ms"));
  options.trace_log_path = flags.Str("trace-log");

  cluster::Router router(members, options);
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "failed to start router: %s\n", error.c_str());
    return 2;
  }
  std::printf("listening on http://%s:%u (router over %zu replicas, "
              "replication=%zu%s)\n",
              options.http.bind_address.c_str(), router.port(),
              members.size(), options.replication_factor,
              options.trace_log_path.empty()
                  ? ""
                  : (", trace-log " + options.trace_log_path).c_str());
  std::fflush(stdout);

  WaitForStopSignal();
  router.Stop();
  std::printf("/statz %s\n", router.StatzJson().c_str());
  return 0;
}

// serve --http-port: expose the service over HTTP/JSON and run until
// SIGINT/SIGTERM. Shutdown order matters: the HTTP server drains first
// (handlers can still resolve futures against a live service), then the
// service drains its own queue.
int ServeHttp(const Flags& flags, service::GraphRegistry& registry,
              service::DecompositionService& service) {
  server::HttpServerOptions http_options;
  // Port 0 asks the kernel for an ephemeral port; the bound port is
  // printed on the "listening on" line below.
  http_options.port = static_cast<uint16_t>(flags.Int("http-port"));
  http_options.num_threads = static_cast<int>(flags.Int("http-threads"));
  server::HttpServer http_server(http_options);

  // With --cluster-id the frontend registers no routes of its own: the
  // ClusterNode wraps every endpoint with ownership-aware routing and
  // delegates the local work back to the frontend's handlers.
  const std::string cluster_id = flags.Str("cluster-id");
  server::DecompositionHttpFrontend frontend(
      registry, service, http_server, /*register_routes=*/cluster_id.empty());

  std::unique_ptr<cluster::ClusterNode> node;
  if (!cluster_id.empty()) {
    cluster::ClusterNodeOptions cluster_options;
    cluster_options.self_id = cluster_id;
    if (!ParseMembers("cluster-members", flags.Str("cluster-members"),
                      flags.Int("replication"), &cluster_options.members)) {
      return 1;
    }
    const auto& members = cluster_options.members;
    if (std::none_of(members.begin(), members.end(), [&](const auto& m) {
          return m.id == cluster_id;
        })) {
      std::fprintf(stderr, "--cluster-id '%s' is not in --cluster-members\n",
                   cluster_id.c_str());
      return 1;
    }
    cluster_options.replication_factor =
        static_cast<size_t>(flags.Int("replication"));
    cluster_options.proxy = flags.On("cluster-proxy");
    cluster_options.peer_timeout_ms =
        static_cast<int>(flags.Int("peer-timeout-ms"));
    node = std::make_unique<cluster::ClusterNode>(cluster_options, registry,
                                                  service, frontend,
                                                  http_server);
  }

  std::string error;
  if (!http_server.Start(&error)) {
    std::fprintf(stderr, "failed to start HTTP server: %s\n", error.c_str());
    return 2;
  }
  if (node != nullptr) {
    // With --http-port 0 the advertised spec for this member is stale;
    // fix it up now that the real port is known.
    node->SetMemberEndpoint(cluster_id, http_options.bind_address,
                            http_server.port());
    std::printf("cluster member '%s' (replication=%lld, %s)\n",
                cluster_id.c_str(),
                static_cast<long long>(flags.Int("replication")),
                flags.On("cluster-proxy") ? "proxying" : "redirecting");
  }
  std::printf("listening on http://%s:%u (POST /v1/decompose, "
              "GET|POST /v1/graphs, POST /v1/graphs/{name}/edges, "
              "POST /v1/admin/snapshot, GET /healthz, GET /statz, "
              "GET /metrics, GET /v1/traces[/{id}])\n",
              http_options.bind_address.c_str(), http_server.port());
  std::fflush(stdout);

  WaitForStopSignal();
  http_server.Stop();
  service.Shutdown(/*drain=*/true);
  // The final counters, as the endpoints would serve them.
  std::printf("/statz %s\n", frontend.StatzJson().c_str());
  if (node != nullptr) {
    std::printf("/v1/cluster/info %s\n", node->InfoJson().c_str());
  }
  return 0;
}

constexpr Flag kServeFlags[] = {
    {"graphs", Flag::kString, "", "NAME=FILE,..."},
    {"datasets", Flag::kString, "", "NAME,..."},
    {"threads", Flag::kInt, "2", "T", 1, kMaxThreads},
    {"workers", Flag::kInt, "2", "W", 1, kMaxPoolThreads},
    {"cache-mb", Flag::kInt, "64", "MB", 0, int64_t{1} << 20},
    {"queue-capacity", Flag::kInt, "256", "N", 1, int64_t{1} << 20},
    {"max-pending-edges", Flag::kInt, "4096", "N", 1, int64_t{1} << 30},
    {"live-track", Flag::kString, "", "tip-U:150,wing:8"},
    // Without --http-port: the in-process clients.
    {"clients", Flag::kInt, "2", "C", 1, kMaxPoolThreads},
    {"requests", Flag::kInt, "12", "N", 0, int64_t{1} << 20},
    {"partitions", Flag::kInt, "8", "P", 1, kMaxPartitions},
    // With it: the HTTP server.
    {"http-port", Flag::kInt, "", "PORT", 0, 65535},
    {"http-threads", Flag::kInt, "4", "N", 1, kMaxPoolThreads},
    {"data-dir", Flag::kString, "", "DIR"},
    {"fsync", Flag::kEnum, "always", "always|batch|off"},
    {"journal-segment-mb", Flag::kInt, "64", "MB", 1, 4096},
    {"snapshot-on-seal", Flag::kOnOff, "on", "on|off"},
    {"cluster-id", Flag::kString, "", "ID"},
    {"cluster-members", Flag::kString, "", "a=H:P,b=H:P,..."},
    {"replication", Flag::kInt, "2", "R", 1, 64},
    {"cluster-proxy", Flag::kOnOff, "on", "on|off"},
    {"peer-timeout-ms", Flag::kInt, "5000", "MS", 1, kMaxTimeoutMs},
};

// serve: register graphs in a GraphRegistry and drive a DecompositionService
// with a mixed tip/wing workload from concurrent clients. Each unique request
// that reaches the engine prints the same PeelStats block as the one-shot
// `decompose` / `wing` commands, so per-phase timings and wedge counters are
// directly comparable between service mode and one-shot runs.
int CmdServe(const Flags& flags) {
  const int threads = static_cast<int>(flags.Int("threads"));
  service::GraphRegistry registry;
  std::vector<std::pair<std::string, std::string>> graph_files;
  for (const std::string& spec : SplitCommaList(flags.Str("graphs"))) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      std::fprintf(stderr, "--graphs entries must be NAME=FILE, got '%s'\n",
                   spec.c_str());
      return 1;
    }
    graph_files.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  }
  const std::vector<std::string> datasets =
      SplitCommaList(flags.Str("datasets"));
  for (const std::string& name : datasets) {
    if (!KnownDataset(name)) return 1;
  }

  const bool http = flags.Given("http-port");
  if (flags.Given("cluster-id") && !http) {
    std::fprintf(stderr, "--cluster-id requires --http-port\n");
    return 1;
  }
  service::ServiceOptions service_options;
  service_options.num_workers = static_cast<int>(flags.Int("workers"));
  service_options.cache_bytes = static_cast<size_t>(flags.Int("cache-mb"))
                                << 20;
  service_options.queue_capacity =
      static_cast<size_t>(flags.Int("queue-capacity"));
  service_options.live_max_pending_edges =
      static_cast<size_t>(flags.Int("max-pending-edges"));
  std::vector<service::LiveConfig> live_track;
  if (!ParseTrackSpecs(flags.Str("live-track"), &live_track)) return 1;

  // Durability: with --data-dir the service journals every state change and
  // replays snapshot + journal on startup before serving anything.
  service_options.data_dir = flags.Str("data-dir");
  if (!service_options.data_dir.empty()) {
    // The table admits only policy names, so this cannot fail.
    durability::FsyncPolicyFromName(flags.Str("fsync"),
                                    &service_options.durability_fsync);
    service_options.journal_segment_bytes =
        static_cast<uint64_t>(flags.Int("journal-segment-mb")) << 20;
    service_options.snapshot_on_seal = flags.On("snapshot-on-seal");
  } else if (flags.Given("fsync") || flags.Given("journal-segment-mb") ||
             flags.Given("snapshot-on-seal")) {
    std::fprintf(stderr, "--fsync/--journal-segment-mb/--snapshot-on-seal "
                         "need --data-dir\n");
    return 1;
  }

  service::DecompositionService service(registry, service_options);
  if (!service.durability_error().empty()) {
    // Refusing to serve beats silently serving non-durable (or guessed)
    // state out of a directory the operator asked us to recover from.
    std::fprintf(stderr, "durability startup failed: %s\n",
                 service.durability_error().c_str());
    return 2;
  }
  if (service.durable()) {
    const durability::RecoveryReport& recovery = service.recovery_report();
    std::printf(
        "durability: data-dir=%s fsync=%s %s (snapshots=%llu records=%llu "
        "batches=%llu seals=%llu graphs=%llu torn_tail=%s in %.3fs)\n",
        service_options.data_dir.c_str(),
        durability::FsyncPolicyName(service_options.durability_fsync),
        recovery.fresh_start ? "fresh start" : "recovered",
        static_cast<unsigned long long>(recovery.snapshots_loaded),
        static_cast<unsigned long long>(recovery.records_scanned),
        static_cast<unsigned long long>(recovery.batches_replayed),
        static_cast<unsigned long long>(recovery.seals_replayed),
        static_cast<unsigned long long>(recovery.graphs_recovered),
        recovery.torn_tail ? "yes" : "no", recovery.seconds);
  }

  // Register requested graphs through the service so each registration is
  // journaled (a plain registry insert would vanish on restart).
  for (const auto& [name, path] : graph_files) {
    std::string error;
    if (service.RegisterGraphFile(name, path, nullptr, &error) !=
        service::Status::kOk) {
      std::fprintf(stderr, "failed to register '%s': %s\n", name.c_str(),
                   error.c_str());
      return 2;
    }
  }
  for (const std::string& name : datasets) {
    std::string error;
    if (service.RegisterGraph(name, MakePaperAnalogue(name), nullptr,
                              &error) != service::Status::kOk) {
      std::fprintf(stderr, "failed to register '%s': %s\n", name.c_str(),
                   error.c_str());
      return 2;
    }
  }
  const std::vector<std::string> names = registry.Names();
  if (names.empty() && !http) {
    std::fprintf(stderr, "need --graphs NAME=FILE,... or --datasets A,B\n");
    return 1;
  }
  for (const std::string& name : names) {
    const service::GraphHandle handle = registry.Acquire(name);
    std::printf("registered %s: |U|=%u |V|=%u |E|=%llu (epoch %llu)\n",
                name.c_str(), handle.graph().num_u(), handle.graph().num_v(),
                static_cast<unsigned long long>(handle.graph().num_edges()),
                static_cast<unsigned long long>(handle.epoch()));
  }

  // Pre-track requested live configurations on every registered graph, so
  // their numbers are cached before the first batch arrives.
  for (const std::string& name : names) {
    for (const service::LiveConfig& config : live_track) {
      std::string error;
      const service::Status status =
          service.live().Track(name, config, threads, &error);
      if (status != service::Status::kOk) {
        std::fprintf(stderr, "live-track %s on %s failed: %s\n",
                     service::RequestKindName(config.kind), name.c_str(),
                     error.c_str());
        return 2;
      }
      std::printf("live-tracking %s %s (partitions=%u)\n", name.c_str(),
                  service::RequestKindName(config.kind), config.partitions);
    }
  }

  if (http) return ServeHttp(flags, registry, service);

  const int clients = static_cast<int>(flags.Int("clients"));
  const int total_requests = static_cast<int>(flags.Int("requests"));
  const int partitions = static_cast<int>(flags.Int("partitions"));

  // The request mix: cycle (graph × kind/algorithm) so repeats exercise the
  // cache and concurrent duplicates exercise coalescing.
  struct KindAlgo {
    service::RequestKind kind;
    service::Algorithm algorithm;
  };
  const KindAlgo mix[] = {
      {service::RequestKind::kTipU, service::Algorithm::kReceipt},
      {service::RequestKind::kTipV, service::Algorithm::kReceipt},
      {service::RequestKind::kWing, service::Algorithm::kReceiptWing},
  };
  std::vector<service::Request> schedule;
  for (int i = 0; i < total_requests; ++i) {
    const KindAlgo& ka = mix[static_cast<size_t>(i) % std::size(mix)];
    service::Request request;
    request.graph = names[static_cast<size_t>(i) % names.size()];
    request.kind = ka.kind;
    request.algorithm = ka.algorithm;
    request.partitions = partitions;
    request.threads = threads;
    schedule.push_back(std::move(request));
  }

  std::mutex print_mutex;
  std::set<std::string> reported;  // unique requests whose stats printed
  std::atomic<int> failed_requests{0};
  const WallTimer serve_timer;
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < schedule.size();
           i += static_cast<size_t>(clients)) {
        const service::Request& request = schedule[i];
        const service::Response response = service.Execute(request);
        std::lock_guard<std::mutex> lock(print_mutex);
        std::printf("[client %d] %s %s %s -> %s%s%s\n", c,
                    request.graph.c_str(),
                    service::RequestKindName(request.kind),
                    service::AlgorithmName(request.algorithm),
                    service::StatusName(response.status),
                    response.cache_hit ? " (cache hit)" : "",
                    response.coalesced ? " (coalesced)" : "");
        if (response.status != service::Status::kOk) {
          std::fprintf(stderr, "request failed: %s\n",
                       response.error.c_str());
          ++failed_requests;
          continue;
        }
        const std::string key =
            request.graph + "/" + service::RequestKindName(request.kind) +
            "/" + service::AlgorithmName(request.algorithm);
        if (!response.cache_hit && reported.insert(key).second) {
          std::printf("%s on %s: max=%llu\n%s\n", key.c_str(),
                      request.graph.c_str(),
                      static_cast<unsigned long long>(
                          response.payload->numbers.empty()
                              ? 0
                              : *std::max_element(
                                    response.payload->numbers.begin(),
                                    response.payload->numbers.end())),
                      response.payload->stats.ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double seconds = serve_timer.Seconds();
  service.Shutdown();

  const service::DecompositionService::Stats stats = service.stats();
  const service::ResultCache::Stats cache = service.cache_stats();
  std::printf(
      "served %llu requests in %.3fs: engine_runs=%llu cache_hits=%llu "
      "coalesced=%llu batched=%llu cancelled=%llu\n",
      static_cast<unsigned long long>(stats.submitted), seconds,
      static_cast<unsigned long long>(stats.engine_runs),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.batched_follow_ons),
      static_cast<unsigned long long>(stats.cancelled));
  std::printf("cache: entries=%llu bytes=%llu evictions=%llu\n",
              static_cast<unsigned long long>(cache.entries),
              static_cast<unsigned long long>(cache.bytes),
              static_cast<unsigned long long>(cache.evictions));
  std::printf("workspace growths (all worker pools): %llu\n",
              static_cast<unsigned long long>(service.WorkspaceGrowths()));
  if (failed_requests.load() > 0) {
    std::fprintf(stderr, "%d request(s) failed\n", failed_requests.load());
    return 2;
  }
  return 0;
}

struct Command {
  const char* name;
  const char* summary;
  std::span<const Flag> flags;
  int (*run)(const Flags&);
};

constexpr Command kCommands[] = {
    {"generate", "write a synthetic graph (a .bin --output is binary, else "
     "KONECT)", kGenerateFlags, CmdGenerate},
    {"stats", "sizes, wedge and butterfly counts of --input or --dataset",
     kStatsFlags, CmdStats},
    {"decompose", "tip decomposition of --input or --dataset",
     kDecomposeFlags, CmdDecompose},
    {"wing", "wing decomposition of --input or --dataset (--parallel: "
     "RECEIPT-W)", kWingFlags, CmdWing},
    {"serve",
     "a DecompositionService over --graphs and --datasets: --clients send\n"
     "  --requests and it exits, or with --http-port (0: ephemeral) it serves\n"
     "  HTTP/JSON until SIGINT/SIGTERM, then drains and prints /statz",
     kServeFlags, CmdServe},
    {"router",
     "front-end for the replica set --members, one --trace-log JSONL record\n"
     "  per acked op; runs until SIGINT/SIGTERM, then prints /statz",
     kRouterFlags, CmdRouter},
    {"update",
     "post a batch of '+ u v' / '- u v' lines (--batch - is stdin) to a\n"
     "  running serve --http-port; retries 429/503 with jittered backoff",
     kUpdateFlags, CmdUpdate},
};

void PrintHelp(std::FILE* out) {
  std::fprintf(out,
               "usage: receipt_cli <command> [--flag VALUE | --flag=VALUE]...\n"
               "An unknown flag, a stray argument, or a malformed or "
               "out-of-range value exits 1.\nDataset names:");
  for (const std::string& name : PaperAnalogueNames()) {
    std::fprintf(out, " %s", name.c_str());
  }
  std::fprintf(out, "\n");
  for (const Command& command : kCommands) {
    std::fprintf(out, "\n%s: %s\n", command.name, command.summary);
    for (const Flag& flag : command.flags) {
      std::string line = std::string("  --") + flag.name + " " +
                         flag.placeholder;
      std::string note = flag.kind == Flag::kSwitch ? "switch" : "";
      if (flag.kind == Flag::kInt || flag.kind == Flag::kReal) {
        note = Range(flag) + (*flag.fallback != '\0' ? ", " : "");
      }
      if (*flag.fallback != '\0') {
        note += std::string("default ") + flag.fallback;
      }
      if (!note.empty()) {
        line.resize(std::max<size_t>(37, line.size() + 1), ' ');
        line += note;
      }
      std::fprintf(out, "%s\n", line.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc < 2 ? "" : argv[1];
  if (name == "help" || name == "--help") {
    PrintHelp(stdout);
    return 0;
  }
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    Flags flags(command.flags);
    if (!flags.Parse(command.name, std::span<char*>(argv + 2, argc - 2))) {
      return 1;
    }
    return command.run(flags);
  }
  if (!name.empty()) {
    std::fprintf(stderr, "unknown command '%.*s'\n",
                 static_cast<int>(name.size()), name.data());
  }
  PrintHelp(stderr);
  return 1;
}

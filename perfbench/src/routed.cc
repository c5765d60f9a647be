// routed_reads and routed_mixed: closed-loop clients against three durable
// in-process replicas behind an in-process Router (see cluster.h). Each
// client waits for every reply before sending the next request. Every
// answer is checked: routed_reads against the in-process engine byte for
// byte, routed_mixed against BUP on the benchmark's own replay of the
// updates it sent; every client's op log must be PRAM-consistent.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "cluster.h"
#include "cluster/hash_ring.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"
#include "service/service_types.h"
#include "tip/bup.h"
#include "tip/receipt.h"
#include "util/json.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using receipt::BipartiteGraph;
using receipt::Side;
using receipt::WallTimer;
using receipt::cluster::TraceOp;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 3;
constexpr int kPartitions = 150;
constexpr int kRequestThreads = 2;
constexpr int kReadClients = 4;
constexpr size_t kBatchUpdates = 64;
constexpr uint64_t kSealEvery = 8;
/// Reads a routed_mixed session sends after each of its batches, and how
/// often a session starts such an iteration.
constexpr size_t kReadsPerBatch = 2;
constexpr std::chrono::milliseconds kSessionPeriod{100};
constexpr int kSerializeRepeats = 10;
/// Slices of the measured window whose median figures are reported (see
/// LatencySamples::WindowedRate).
constexpr int kWindows = 5;
/// Intermediate (graph, epoch, kind) read groups re-derived with BUP per
/// run, besides the final state of each graph.
constexpr size_t kOracleSamples = 6;

const char* KindName(Side side) { return side == Side::kU ? "tip-U" : "tip-V"; }

std::string DecomposeBody(const std::string& graph, Side side) {
  return "{\"graph\":\"" + graph + "\",\"kind\":\"" + KindName(side) +
         "\",\"partitions\":" + std::to_string(kPartitions) +
         ",\"threads\":" + std::to_string(kRequestThreads) + "}";
}

std::string HeaderOf(const Exchange& exchange, const std::string& name) {
  const auto it = exchange.response.headers.find(name);
  return it == exchange.response.headers.end() ? std::string() : it->second;
}

double DoubleField(const std::string& body, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const size_t pos = body.find(quoted);
  return pos == std::string::npos
             ? 0.0
             : std::strtod(body.c_str() + pos + quoted.size(), nullptr);
}

TraceOp MakeOp(const std::string& client, bool read, const std::string& graph,
               uint64_t epoch, std::string request_id) {
  TraceOp op;
  op.client = client;
  op.read = read;
  op.graph = graph;
  op.epoch = epoch;
  op.request_id = std::move(request_id);
  return op;
}

/// Registers `dataset` as `name` through the router; the owner generates
/// the analogue, journals it and replicates it to the other holder.
bool RegisterGraph(Cluster& cluster, const std::string& name,
                   const std::string& dataset, uint64_t* epoch,
                   std::string* error) {
  const Exchange ex = Post(
      cluster.router_port(), "/v1/graphs",
      "{\"name\":\"" + name + "\",\"dataset\":\"" + dataset + "\"}");
  if (!ex.ok || !UintField(ex.response.body, "epoch", epoch)) {
    *error = "register " + name + ": HTTP " + std::to_string(ex.status) +
             " " + ex.error;
    return false;
  }
  return true;
}

/// One engine run per (holder, side) so every later read of `name` can be
/// a cache hit on whichever holder serves it.
bool PrimeCaches(Cluster& cluster, const std::string& name,
                 std::string* error) {
  for (const std::string& holder : cluster.HoldersOf(name)) {
    for (const Side side : {Side::kU, Side::kV}) {
      const Exchange ex = Post(cluster.port_of(holder), "/v1/decompose",
                               DecomposeBody(name, side));
      if (!ex.ok) {
        *error = "prime " + name + " on " + holder + ": " + ex.error;
        return false;
      }
    }
  }
  return true;
}

/// Scratch directory for one run's replica data, removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& parent)
      : path_(parent + "/perfbench-data-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Brings a fresh cluster up and runs `set_up` on it kSetupRepeats times,
/// tearing down all but the last; the median wall time is setup_s.
std::unique_ptr<Cluster> SetUpRepeatedly(
    const WorkDir& dir,
    const std::function<bool(Cluster&, std::string*)>& set_up,
    double* setup_s, std::string* error) {
  std::vector<double> times;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string root = dir.path() + "/setup-" + std::to_string(i);
    cluster = std::make_unique<Cluster>(root);
    const WallTimer timer;
    if (!cluster->Start(error) || !set_up(*cluster, error)) return nullptr;
    times.push_back(timer.Seconds());
    if (i + 1 < kSetupRepeats) {
      cluster.reset();
      std::filesystem::remove_all(root);
    }
  }
  *setup_s = Median(times);
  return cluster;
}

/// Mean over `reads` of the median time of WriteResponseJson on the cached
/// payload of that read, taken from the graph's owner.
double SerializeMs(Cluster& cluster,
                   const std::vector<std::pair<std::string, Side>>& reads) {
  double sum_ms = 0;
  for (const auto& [graph, side] : reads) {
    receipt::service::Request request;
    request.graph = graph;
    request.kind = side == Side::kU ? receipt::service::RequestKind::kTipU
                                    : receipt::service::RequestKind::kTipV;
    request.partitions = kPartitions;
    request.threads = kRequestThreads;
    const receipt::service::Response response =
        cluster.service_of(cluster.HoldersOf(graph)[0]).Execute(request);
    std::vector<double> times;
    for (int i = 0; i < kSerializeRepeats; ++i) {
      const WallTimer timer;
      receipt::util::JsonWriter writer;
      receipt::service::WriteResponseJson(request, response, &writer);
      times.push_back(timer.Seconds() * 1e3);
    }
    sum_ms += Median(times);
  }
  return sum_ms / static_cast<double>(reads.size());
}

/// Per-layer deltas of the cluster's stats() between two snapshots.
void SetCounterDeltas(const LayerCounters& a, const LayerCounters& b,
                      MetricSet* layer) {
  layer->Set("router.failovers", b.router_failovers - a.router_failovers,
             "count");
  layer->Set("router.no_replica", b.router_no_replica - a.router_no_replica,
             "count");
  const double hits = b.cache_hits - a.cache_hits;
  const double lookups = hits + b.cache_misses - a.cache_misses;
  layer->Set("service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
             "ratio");
  layer->Set("service.engine_runs", b.engine_runs - a.engine_runs, "count");
  const double waits = b.queue_waits - a.queue_waits;
  layer->Set("service.queue_wait_ms",
             waits > 0 ? (b.queue_wait_s - a.queue_wait_s) * 1e3 / waits : 0,
             "ms");
  const double incremental = b.seals_incremental - a.seals_incremental;
  const double runs = incremental + b.seals_full - a.seals_full;
  layer->Set("live.incremental_ratio", runs > 0 ? incremental / runs : 0,
             "ratio");
  const double reused = b.ranges_reused - a.ranges_reused;
  const double ranges = reused + b.ranges_repeeled - a.ranges_repeeled;
  layer->Set("live.reuse_ratio", ranges > 0 ? reused / ranges : 0, "ratio");
  layer->Set("journal.appends", b.journal_appends - a.journal_appends,
             "count");
  layer->Set("journal.fsyncs", b.journal_fsyncs - a.journal_fsyncs, "count");
  layer->Set("journal.bytes", b.journal_bytes - a.journal_bytes, "bytes");
  layer->Set("snapshot.written", b.snapshots - a.snapshots, "count");
  layer->Set("cluster.replicated_out", b.replicated_out - a.replicated_out,
             "count");
  layer->Set("cluster.replication_failures",
             b.replication_failures - a.replication_failures, "count");
  layer->Set("cluster.chain_syncs", b.chain_syncs - a.chain_syncs, "count");
  layer->Set("cluster.stale_rejects", b.stale_rejects - a.stale_rejects,
             "count");
}

/// What one client thread observed.
struct ClientLog {
  LatencySamples main;
  LatencySamples side;
  LatencySamples direct;  ///< routed_mixed: traced reads sent to a holder
  LatencySamples seal;  ///< routed_mixed: sealing batches (`side` has the rest)
  std::vector<double> seal_seconds;
  std::vector<TraceOp> ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double response_bytes = 0;
  uint64_t responses = 0;
  std::vector<std::string> problems;
};

/// Folds the client logs into the outcome; returns the merged op log.
std::vector<TraceOp> Merge(const std::vector<ClientLog>& logs,
                           Outcome* outcome, ClientLog* merged) {
  std::vector<TraceOp> ops;
  for (const ClientLog& log : logs) {
    merged->main.Append(log.main);
    merged->side.Append(log.side);
    merged->seal.Append(log.seal);
    merged->seal_seconds.insert(merged->seal_seconds.end(),
                                log.seal_seconds.begin(),
                                log.seal_seconds.end());
    merged->response_bytes += log.response_bytes;
    merged->responses += log.responses;
    outcome->attempted += log.attempted;
    outcome->failed += log.failed;
    for (const std::string& problem : log.problems) outcome->Problem(problem);
    ops.insert(ops.end(), log.ops.begin(), log.ops.end());
  }
  return ops;
}

void CheckOps(const RunConfig& config, std::vector<TraceOp> ops,
              Outcome* outcome) {
  if (config.inject == "stale" && !MakeStale(&ops)) {
    outcome->Problem("stale injection found no read to roll back");
  }
  if (const std::string violation = CheckOpLog(ops); !violation.empty()) {
    outcome->Problem("op log is not PRAM-consistent:\n" + violation);
  }
}

void SetEndToEnd(double setup_s, double seconds, const LatencySamples& main,
                 const LatencySamples& side, const ClientLog& merged,
                 Outcome* outcome) {
  MetricSet& e2e = outcome->end_to_end;
  e2e.Set("setup_s", setup_s, "s");
  e2e.Set("main_per_s", main.WindowedRate(seconds, kWindows), "1/s");
  e2e.Set("main_p50_ms", main.WindowedMedian(seconds, kWindows), "ms");
  e2e.Set("side_per_s", side.WindowedRate(seconds, kWindows), "1/s");
  e2e.Set("side_p50_ms", side.WindowedMedian(seconds, kWindows), "ms");
  MetricSet& layer = outcome->per_layer;
  layer.Set("main.tail_ms", main.WindowedTail(seconds, kWindows), "ms");
  layer.Set("side.tail_ms", side.WindowedTail(seconds, kWindows), "ms");
  layer.Set("main.samples", static_cast<double>(main.size()), "count");
  layer.Set("side.samples", static_cast<double>(side.size()), "count");
  layer.Set("traced.main_p50_ms", main.WindowedMedian(seconds, kWindows),
            "ms");
  layer.Set("traced.side_p50_ms", side.WindowedMedian(seconds, kWindows),
            "ms");
  layer.Set("server.response_bytes",
            merged.responses > 0
                ? merged.response_bytes / static_cast<double>(merged.responses)
                : 0,
            "bytes");
}

void PrintLatency(const std::string& prefix, const LatencySamples& samples,
                  double seconds, const char* rate_unit) {
  PrintHuman(prefix + "_rate", samples.WindowedRate(seconds, kWindows),
             rate_unit);
  PrintHuman(prefix + "_p50_ms", samples.WindowedMedian(seconds, kWindows),
             "ms");
  PrintHuman(prefix + "_tail_ms", samples.WindowedTail(seconds, kWindows),
             "ms");
  PrintHuman(prefix + "_whole_run_tail_ms", samples.Tail(), "ms");
  PrintHuman(prefix + "_whole_run_tail_percentile", samples.TailPercentile(),
             "%");
  PrintHuman(prefix + "_samples", static_cast<double>(samples.size()),
             "count");
}

}  // namespace

// ---------------------------------------------------------------------------
// routed_reads
// ---------------------------------------------------------------------------

Outcome RunRoutedReads(const RunConfig& config) {
  Outcome outcome;
  const std::vector<std::string> graphs = {"it", "de", "or"};

  // The reads the clients draw from, and the engine's own answer to each.
  std::vector<std::pair<std::string, Side>> reads;
  std::vector<std::string> bodies;
  std::vector<std::string> expected;
  for (const std::string& name : graphs) {
    const BipartiteGraph graph = receipt::MakePaperAnalogue(name);
    for (const Side side : {Side::kU, Side::kV}) {
      receipt::TipOptions options;
      options.side = side;
      options.num_threads = 4;
      options.num_partitions = kPartitions;
      reads.emplace_back(name, side);
      bodies.push_back(DecomposeBody(name, side));
      expected.push_back(SerializeNumbers(
          receipt::ReceiptDecompose(graph, options).tip_numbers));
    }
  }

  const WorkDir dir(config.work_dir);
  std::vector<TraceOp> setup_ops;
  double setup_s = 0;
  std::string error;
  std::unique_ptr<Cluster> cluster = SetUpRepeatedly(
      dir,
      [&](Cluster& c, std::string* err) {
        setup_ops.clear();
        for (const std::string& name : graphs) {
          uint64_t epoch = 0;
          if (!RegisterGraph(c, name, name, &epoch, err)) return false;
          setup_ops.push_back(MakeOp("setup", false, name, epoch, ""));
        }
        for (const std::string& name : graphs) {
          if (!PrimeCaches(c, name, err)) return false;
        }
        return true;
      },
      &setup_s, &error);
  if (cluster == nullptr) {
    outcome.Problem("cluster set-up failed: " + error);
    return outcome;
  }
  std::map<std::string, std::vector<uint16_t>> holder_ports;
  for (const std::string& name : graphs) {
    for (const std::string& holder : cluster->HoldersOf(name)) {
      holder_ports[name].push_back(cluster->port_of(holder));
    }
  }

  ResetPeakRss();
  const LayerCounters before = cluster->Counters();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<ClientLog> logs(kReadClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kReadClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      const std::string client = "client-" + std::to_string(c);
      std::mt19937_64 rng(config.seed * 1000003 + static_cast<uint64_t>(c));
      size_t next_holder = static_cast<size_t>(c);
      bool inject = config.inject == "flip" && c == 0;
      // Even requests go through the router, odd ones straight to a
      // holder (round-robin, as the router would pick).
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        const size_t k = rng() % reads.size();
        const bool routed = i % 2 == 0;
        const std::string& graph = reads[k].first;
        const std::vector<uint16_t>& holders = holder_ports.at(graph);
        const uint16_t port =
            routed ? cluster->router_port()
                   : holders[next_holder++ % holders.size()];
        Exchange ex = Post(port, "/v1/decompose", bodies[k]);
        ++log.attempted;
        LatencySamples& samples = routed ? log.main : log.side;
        if (!ex.ok) {
          ++log.failed;
          samples.AddFailure(since_start());
          continue;
        }
        samples.Add(ex.ms, since_start());
        if (routed && inject) inject = !FlipOneNumber(&ex.response.body);
        if (NumbersSegment(ex.response.body) != expected[k]) {
          log.problems.push_back(graph + " " + KindName(reads[k].second) +
                                 " answer differs from the engine's");
        }
        if (routed) {
          uint64_t epoch = 0;
          UintField(ex.response.body, "graph_epoch", &epoch);
          log.ops.push_back(MakeOp(client, true, graph, epoch,
                                   HeaderOf(ex, "x-request-id")));
          log.response_bytes += static_cast<double>(ex.response.body.size());
          ++log.responses;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  const LayerCounters after = cluster->Counters();

  ClientLog merged;
  std::vector<TraceOp> ops = setup_ops;
  const std::vector<TraceOp> client_ops = Merge(logs, &outcome, &merged);
  ops.insert(ops.end(), client_ops.begin(), client_ops.end());
  CheckOps(config, std::move(ops), &outcome);
  SetEndToEnd(setup_s, config.seconds, merged.main, merged.side, merged,
              &outcome);

  MetricSet& layer = outcome.per_layer;
  SetCounterDeltas(before, after, &layer);
  layer.Set("router.hop_ms",
            merged.main.WindowedMedian(config.seconds, kWindows) -
                merged.side.WindowedMedian(config.seconds, kWindows),
            "ms");
  layer.Set("server.direct_read_ms",
            merged.side.WindowedMedian(config.seconds, kWindows), "ms");
  if (config.trace) {
    layer.Set("server.serialize_ms", SerializeMs(*cluster, reads), "ms");
  }
  cluster.reset();

  std::printf("routed_reads: %d closed-loop clients, %.0f s, reads of "
              "it/de/or tip-U/tip-V alternating router / direct\n",
              kReadClients, config.seconds);
  PrintLatency("read_routed", merged.main, config.seconds, "1/s");
  PrintLatency("read_direct", merged.side, config.seconds, "1/s");
  PrintHuman("failed_frac",
             outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                         static_cast<double>(outcome.attempted)
                                   : 0,
             "ratio");
  PrintHuman("setup_s", setup_s, "s");
  return outcome;
}

// ---------------------------------------------------------------------------
// routed_mixed
// ---------------------------------------------------------------------------

namespace {

uint64_t EdgeKey(uint32_t u, uint32_t v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// One session's graph as the benchmark believes it to be, and the churn it
/// sends: deletions of edges whose endpoints both have degree <= 3, and
/// insertions between low-weight (high-id) vertices whose V end has degree
/// <= 3 — the localized updates the incremental seal is built for.
class ChurnGraph {
 public:
  ChurnGraph(const BipartiteGraph& graph, uint64_t seed)
      : num_u_(graph.num_u()), num_v_(graph.num_v()),
        du_(graph.num_u(), 0), dv_(graph.num_v(), 0), rng_(seed) {
    for (const BipartiteGraph::Edge& e : graph.ToEdges()) Insert(e.u, e.v);
  }

  std::vector<receipt::service::EdgeUpdate> NextBatch() {
    std::vector<receipt::service::EdgeUpdate> batch;
    std::set<uint64_t> touched;
    for (int tries = 0; batch.size() < kBatchUpdates / 2 && tries < 100000;
         ++tries) {
      const auto [u, v] = edges_[rng_() % edges_.size()];
      if (du_[u] > 3 || dv_[v] > 3 || !touched.insert(EdgeKey(u, v)).second) {
        continue;
      }
      Erase(u, v);
      batch.push_back({/*insert=*/false, u, v});
    }
    for (int tries = 0; batch.size() < kBatchUpdates && tries < 100000;
         ++tries) {
      const uint32_t u =
          num_u_ / 2 + static_cast<uint32_t>(rng_() % (num_u_ - num_u_ / 2));
      const uint32_t v =
          num_v_ / 2 + static_cast<uint32_t>(rng_() % (num_v_ - num_v_ / 2));
      if (dv_[v] > 3 || index_.count(EdgeKey(u, v)) != 0 ||
          !touched.insert(EdgeKey(u, v)).second) {
        continue;
      }
      Insert(u, v);
      batch.push_back({/*insert=*/true, u, v});
    }
    return batch;
  }

 private:
  void Insert(uint32_t u, uint32_t v) {
    index_[EdgeKey(u, v)] = edges_.size();
    edges_.emplace_back(u, v);
    ++du_[u];
    ++dv_[v];
  }
  void Erase(uint32_t u, uint32_t v) {
    const auto it = index_.find(EdgeKey(u, v));
    const size_t pos = it->second;
    index_.erase(it);
    if (pos + 1 != edges_.size()) {
      edges_[pos] = edges_.back();
      index_[EdgeKey(edges_[pos].first, edges_[pos].second)] = pos;
    }
    edges_.pop_back();
    --du_[u];
    --dv_[v];
  }

  uint32_t num_u_;
  uint32_t num_v_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
  std::unordered_map<uint64_t, size_t> index_;
  std::vector<uint32_t> du_;
  std::vector<uint32_t> dv_;
  std::mt19937_64 rng_;
};

/// Everything one session sent to its graph, in order, with the epoch each
/// batch was acked at — enough to rebuild the graph at any sealed epoch.
struct WriteLog {
  std::string name;
  BipartiteGraph initial;
  uint64_t registered_epoch = 0;
  struct Batch {
    std::vector<receipt::service::EdgeUpdate> updates;
    bool sealed = false;
    uint64_t epoch = 0;
  };
  std::vector<Batch> batches;

  uint64_t FinalEpoch() const {
    uint64_t epoch = registered_epoch;
    for (const Batch& b : batches) {
      if (b.sealed) epoch = b.epoch;
    }
    return epoch;
  }

  /// The sealed graph at `epoch`: the initial graph plus every batch up to
  /// the one whose seal produced `epoch`.
  BipartiteGraph StateAt(uint64_t epoch) const {
    size_t end = 0;
    for (size_t i = 0; i < batches.size(); ++i) {
      if (batches[i].sealed && batches[i].epoch == epoch) end = i + 1;
    }
    std::set<std::pair<uint32_t, uint32_t>> edges;
    for (const BipartiteGraph::Edge& e : initial.ToEdges()) {
      edges.emplace(e.u, e.v);
    }
    for (size_t i = 0; i < end; ++i) {
      for (const auto& update : batches[i].updates) {
        if (update.insert) {
          edges.emplace(update.u, update.v);
        } else {
          edges.erase({update.u, update.v});
        }
      }
    }
    std::vector<BipartiteGraph::Edge> list;
    for (const auto& [u, v] : edges) list.push_back({u, v});
    return BipartiteGraph::FromEdges(initial.num_u(), initial.num_v(),
                                     std::move(list));
  }
};

std::string BatchBody(const std::vector<receipt::service::EdgeUpdate>& batch,
                      bool seal, bool track) {
  receipt::util::JsonWriter writer;
  writer.BeginObject().Key("edges").BeginArray();
  for (const auto& update : batch) {
    writer.BeginObject()
        .Key("op").String(update.insert ? "insert" : "delete")
        .Key("u").Uint(update.u)
        .Key("v").Uint(update.v)
        .EndObject();
  }
  writer.EndArray();
  writer.Key("seal").Bool(seal).Key("threads").Int(kRequestThreads);
  if (track) {
    writer.Key("track").BeginArray().BeginObject()
        .Key("kind").String("tip-U")
        .Key("partitions").Int(kPartitions)
        .EndObject().EndArray();
  }
  writer.EndObject();
  return writer.Take();
}

/// Two graph names that the cluster's hash ring gives to the same owner.
std::vector<std::string> SameOwnerNames() {
  const receipt::cluster::HashRing ring(Cluster::MemberIds());
  std::vector<std::string> names;
  const std::string owner = ring.Owner("lj-0");
  for (int i = 0; names.size() < 2; ++i) {
    const std::string name = "lj-" + std::to_string(i);
    if (ring.Owner(name) == owner) names.push_back(name);
  }
  return names;
}

/// One decompose answer a reader saw.
struct ReadRecord {
  size_t graph = 0;
  Side side = Side::kU;
  uint64_t epoch = 0;
  uint64_t hash = 0;
};

}  // namespace

Outcome RunRoutedMixed(const RunConfig& config) {
  Outcome outcome;
  const std::vector<std::string> names = SameOwnerNames();
  const BipartiteGraph lj = receipt::MakePaperAnalogue("lj");

  const WorkDir dir(config.work_dir);
  std::vector<WriteLog> writes(names.size());
  std::vector<std::unique_ptr<ChurnGraph>> churn(names.size());
  std::vector<TraceOp> setup_ops;
  double setup_s = 0;
  std::string error;
  // Set-up registers both graphs, primes every holder's cache, and sends
  // each graph's first batch, which carries `track` (see README: sending
  // it on every batch would re-run a full decomposition per batch).
  std::unique_ptr<Cluster> cluster = SetUpRepeatedly(
      dir,
      [&](Cluster& c, std::string* err) {
        setup_ops.clear();
        for (size_t g = 0; g < names.size(); ++g) {
          writes[g] = WriteLog{names[g], lj, 0, {}};
          churn[g] = std::make_unique<ChurnGraph>(
              lj, config.seed * 7919 + g);
          if (!RegisterGraph(c, names[g], "lj", &writes[g].registered_epoch,
                             err)) {
            return false;
          }
          setup_ops.push_back(
              MakeOp("setup", false, names[g], writes[g].registered_epoch,
                     ""));
          if (!PrimeCaches(c, names[g], err)) return false;
          WriteLog::Batch batch{churn[g]->NextBatch(), false, 0};
          const Exchange ex = Post(c.router_port(),
                                   "/v1/graphs/" + names[g] + "/edges",
                                   BatchBody(batch.updates, false, true));
          if (!ex.ok || !UintField(ex.response.body, "epoch", &batch.epoch)) {
            *err = "first batch of " + names[g] + ": " + ex.error;
            return false;
          }
          setup_ops.push_back(MakeOp("setup", false, names[g], batch.epoch,
                                     HeaderOf(ex, "x-request-id")));
          writes[g].batches.push_back(std::move(batch));
        }
        return true;
      },
      &setup_s, &error);
  if (cluster == nullptr) {
    outcome.Problem("cluster set-up failed: " + error);
    return outcome;
  }
  std::vector<std::vector<uint16_t>> holder_ports(names.size());
  for (size_t g = 0; g < names.size(); ++g) {
    for (const std::string& holder : cluster->HoldersOf(names[g])) {
      holder_ports[g].push_back(cluster->port_of(holder));
    }
  }

  ResetPeakRss();
  const LayerCounters before = cluster->Counters();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // One session per graph: post a batch (every kSealEvery-th seals), then
  // kReadsPerBatch reads of the same graph, and again. Both sessions write
  // to graphs of one owner, so they contend for its write path, handler
  // threads and worker while their reads miss the cache after each seal.
  std::vector<ClientLog> logs(names.size());
  std::vector<std::vector<ReadRecord>> read_records(names.size());
  std::vector<std::thread> clients;
  for (size_t g = 0; g < names.size(); ++g) {
    clients.emplace_back([&, g] {
      ClientLog& log = logs[g];
      WriteLog& write_log = writes[g];
      const std::string client = "session-" + std::to_string(g);
      const std::string path = "/v1/graphs/" + names[g] + "/edges";
      std::mt19937_64 rng(config.seed * 1000003 + 17 + g);
      size_t next_holder = g;
      uint64_t reads_sent = 0;
      // One iteration per kSessionPeriod (a late reply delays the next
      // iteration, it never queues several): a fixed offered load, well
      // below what the cluster sustains, so the figures track the cost of
      // each operation rather than how much CPU the host leaves this VM.
      // Past the deadline the session only writes, until its last batch
      // sealed, so the run ends on a sealed state every holder must share.
      Clock::time_point next_start = start + kSessionPeriod * g / 2;
      while (Clock::now() < deadline ||
             write_log.batches.size() % kSealEvery != 0) {
        std::this_thread::sleep_until(next_start);
        next_start = std::max(next_start + kSessionPeriod, Clock::now());
        const bool in_window = Clock::now() < deadline;
        WriteLog::Batch batch{churn[g]->NextBatch(), false, 0};
        const bool seal = (write_log.batches.size() + 1) % kSealEvery == 0;
        const Exchange ex =
            Post(cluster->router_port(), path,
                 BatchBody(batch.updates, seal, false));
        ++log.attempted;
        if (!ex.ok || !UintField(ex.response.body, "epoch", &batch.epoch)) {
          ++log.failed;
          if (in_window) (seal ? log.seal : log.side).AddFailure(since_start());
          log.problems.push_back("write to " + names[g] + " failed: HTTP " +
                                 std::to_string(ex.status) + " " + ex.error);
          return;  // the replay no longer matches the server
        }
        batch.sealed =
            ex.response.body.find("\"sealed\":true") != std::string::npos;
        if (batch.sealed != seal) {
          log.problems.push_back("batch on " + names[g] +
                                 (seal ? " did not seal" : " sealed early"));
        }
        if (in_window && batch.sealed) {
          log.seal.Add(ex.ms, since_start());
          log.seal_seconds.push_back(
              DoubleField(ex.response.body, "seal_seconds"));
        } else if (in_window) {
          log.side.Add(ex.ms, since_start());
        }
        log.ops.push_back(MakeOp(client, false, names[g], batch.epoch,
                                 HeaderOf(ex, "x-request-id")));
        write_log.batches.push_back(std::move(batch));

        for (size_t i = 0; i < kReadsPerBatch && Clock::now() < deadline;
             ++i, ++reads_sent) {
          const Side side = rng() % 2 == 0 ? Side::kU : Side::kV;
          // Traced runs send every other read straight to a holder, for
          // the router hop; untraced runs route every read.
          const bool routed = !config.trace || reads_sent % 2 == 0;
          const uint16_t port =
              routed ? cluster->router_port()
                     : holder_ports[g][next_holder++ % holder_ports[g].size()];
          const Exchange read =
              Post(port, "/v1/decompose", DecomposeBody(names[g], side));
          ++log.attempted;
          LatencySamples& samples = routed ? log.main : log.direct;
          if (!read.ok) {
            ++log.failed;
            samples.AddFailure(since_start());
            continue;
          }
          samples.Add(read.ms, since_start());
          ReadRecord record{g, side, 0,
                            Fnv1a(NumbersSegment(read.response.body))};
          UintField(read.response.body, "graph_epoch", &record.epoch);
          read_records[g].push_back(record);
          if (routed) {
            log.ops.push_back(MakeOp(client, true, names[g], record.epoch,
                                     HeaderOf(read, "x-request-id")));
            log.response_bytes +=
                static_cast<double>(read.response.body.size());
            ++log.responses;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  const LayerCounters after = cluster->Counters();

  // Final state: every holder serves the same sealed numbers, equal to BUP
  // on the replayed updates.
  std::map<std::tuple<size_t, uint64_t, Side>, std::string> oracle;
  bool inject = config.inject == "flip";
  for (size_t g = 0; g < names.size(); ++g) {
    const uint64_t epoch = writes[g].FinalEpoch();
    const BipartiteGraph final_graph = writes[g].StateAt(epoch);
    for (const Side side : {Side::kU, Side::kV}) {
      receipt::TipOptions options;
      options.side = side;
      const std::string expected = SerializeNumbers(
          receipt::BupDecompose(final_graph, options).tip_numbers);
      oracle[{g, epoch, side}] = expected;
      for (const uint16_t port : holder_ports[g]) {
        Exchange ex = Post(port, "/v1/decompose", DecomposeBody(names[g], side),
                           {{"X-Cluster-Min-Epoch", std::to_string(epoch)}});
        uint64_t served = 0;
        if (!ex.ok || !UintField(ex.response.body, "graph_epoch", &served) ||
            served != epoch) {
          outcome.Problem("holder of " + names[g] + " did not serve epoch " +
                          std::to_string(epoch) + ": " + ex.error);
          continue;
        }
        if (inject) inject = !FlipOneNumber(&ex.response.body);
        if (NumbersSegment(ex.response.body) != expected) {
          outcome.Problem("final " + std::string(KindName(side)) +
                          " numbers of " + names[g] + " on port " +
                          std::to_string(port) + " differ from BUP");
        }
      }
    }
  }

  // Every read: one answer per (graph, epoch, side) across all readers and
  // holders, and that answer equals BUP for a seeded sample of groups.
  std::map<std::tuple<size_t, uint64_t, Side>, uint64_t> group_hash;
  for (const auto& records : read_records) {
    for (const ReadRecord& record : records) {
      const auto key = std::make_tuple(record.graph, record.epoch, record.side);
      const auto [it, inserted] = group_hash.emplace(key, record.hash);
      if (!inserted && it->second != record.hash) {
        outcome.Problem("two reads of " + names[record.graph] + " " +
                        KindName(record.side) + " at epoch " +
                        std::to_string(record.epoch) + " disagree");
      }
    }
  }
  std::vector<std::tuple<size_t, uint64_t, Side>> sampled;
  for (const auto& [key, hash] : group_hash) {
    if (oracle.count(key) == 0) sampled.push_back(key);
  }
  std::mt19937_64 rng(config.seed);
  std::shuffle(sampled.begin(), sampled.end(), rng);
  sampled.resize(std::min(sampled.size(), kOracleSamples));
  std::vector<std::string> sampled_expected(sampled.size());
  {
    std::vector<std::thread> workers;
    for (size_t i = 0; i < sampled.size(); ++i) {
      workers.emplace_back([&, i] {
        const auto& [g, epoch, side] = sampled[i];
        receipt::TipOptions options;
        options.side = side;
        sampled_expected[i] = SerializeNumbers(
            receipt::BupDecompose(writes[g].StateAt(epoch), options)
                .tip_numbers);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  for (size_t i = 0; i < sampled.size(); ++i) {
    oracle[sampled[i]] = sampled_expected[i];
  }
  for (const auto& [key, hash] : group_hash) {
    const auto it = oracle.find(key);
    if (it != oracle.end() && Fnv1a(it->second) != hash) {
      outcome.Problem("reads of " + names[std::get<0>(key)] + " " +
                      KindName(std::get<2>(key)) + " at epoch " +
                      std::to_string(std::get<1>(key)) + " differ from BUP");
    }
  }

  ClientLog merged;
  std::vector<TraceOp> ops = setup_ops;
  const std::vector<TraceOp> client_ops = Merge(logs, &outcome, &merged);
  ops.insert(ops.end(), client_ops.begin(), client_ops.end());
  CheckOps(config, std::move(ops), &outcome);

  // Routed reads are `main` and sealing batches `side`. The other batches
  // (journal + replication only) spread too widely from run to run on a
  // shared host to carry a bound, so their p50 is a per-layer figure.
  // Traced runs' direct reads are kept apart for the router hop.
  LatencySamples direct;
  for (const ClientLog& log : logs) direct.Append(log.direct);
  SetEndToEnd(setup_s, config.seconds, merged.main, merged.seal, merged,
              &outcome);

  MetricSet& layer = outcome.per_layer;
  SetCounterDeltas(before, after, &layer);
  layer.Set("live.seal_s", Median(merged.seal_seconds), "s");
  layer.Set("cluster.write_p50_ms",
            merged.side.WindowedMedian(config.seconds, kWindows), "ms");
  if (config.trace) {
    const double direct_ms = direct.WindowedMedian(config.seconds, kWindows);
    layer.Set("router.hop_ms",
              merged.main.WindowedMedian(config.seconds, kWindows) - direct_ms,
              "ms");
    layer.Set("server.direct_read_ms", direct_ms, "ms");
    layer.Set(
        "server.serialize_ms",
        SerializeMs(*cluster, {{names[0], Side::kU}, {names[0], Side::kV}}),
        "ms");
  }
  cluster.reset();

  std::printf("routed_mixed: 2 sessions (a 64-update batch, seal every "
              "%llu, then %zu reads, every %lld ms) on %s and %s, %.0f s\n",
              static_cast<unsigned long long>(kSealEvery), kReadsPerBatch,
              static_cast<long long>(kSessionPeriod.count()), names[0].c_str(),
              names[1].c_str(), config.seconds);
  PrintLatency("read", merged.main, config.seconds, "1/s");
  PrintLatency("write", merged.side, config.seconds, "batches/s");
  PrintLatency("seal", merged.seal, config.seconds, "batches/s");
  PrintHuman("seal_engine_s_p50", Median(merged.seal_seconds), "s");
  PrintHuman("read_groups_checked_against_bup",
             static_cast<double>(sampled.size() + 2 * names.size()), "count");
  PrintHuman("failed_frac",
             outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                         static_cast<double>(outcome.attempted)
                                   : 0,
             "ratio");
  PrintHuman("setup_s", setup_s, "s");
  return outcome;
}

}  // namespace perfbench

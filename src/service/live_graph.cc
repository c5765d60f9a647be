#include "service/live_graph.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace receipt::service {

namespace {

using Edge = BipartiteGraph::Edge;
using durability::JournalRecord;

Algorithm AlgorithmFor(RequestKind kind) {
  return kind == RequestKind::kWing ? Algorithm::kReceiptWing
                                    : Algorithm::kReceipt;
}

}  // namespace

LiveGraphManager::LiveGraphManager(GraphRegistry& registry, ResultCache& cache,
                                   const LiveOptions& options,
                                   obs::MetricsRegistry& metrics)
    : registry_(&registry),
      cache_(&cache),
      options_(options),
      batches_total_(metrics.GetCounter(
          "receipt_live_batches_total",
          "Edge batches buffered into live graphs.")),
      updates_total_(metrics.GetCounter(
          "receipt_live_updates_total",
          "Edge updates buffered into live graphs.")),
      seal_runs_(metrics.GetCounter(
          "receipt_live_seal_runs_total",
          "Per-configuration live-seal engine runs.")),
      baselines_built_(metrics.GetCounter(
          "receipt_live_baselines_built_total",
          "Decompositions run to start tracking a live configuration.")),
      pending_edges_(metrics.GetGauge(
          "receipt_live_pending_edges",
          "Edge updates currently buffered across live graphs.")),
      seal_seconds_(metrics.GetHistogram("receipt_live_seal_seconds",
                                         "Wall time of live-update seals.")) {}

LiveGraphManager::LiveGraphState* LiveGraphManager::GetOrCreateState(
    const std::string& name, bool registering) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = states_.find(name);
  if (it != states_.end()) return it->second.get();
  GraphHandle handle = registry_->Acquire(name);
  if (!handle && !registering) return nullptr;
  auto state = std::make_unique<LiveGraphState>();
  state->name = name;
  state->handle = std::move(handle);
  return states_.emplace(name, std::move(state)).first->second.get();
}

LiveGraphManager::LiveGraphState* LiveGraphManager::FindState(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = states_.find(name);
  return it == states_.end() ? nullptr : it->second.get();
}

Status LiveGraphManager::Track(const std::string& name,
                               const LiveConfig& config, int threads,
                               std::string* error) {
  if (LiveGraphState* state = GetOrCreateState(name)) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->handle) return TrackLocked(*state, config, threads, error);
  }
  if (error != nullptr) *error = "graph '" + name + "' is not registered";
  return Status::kNotFound;
}

Status LiveGraphManager::TrackLocked(LiveGraphState& state,
                                     const LiveConfig& config, int threads,
                                     std::string* error) {
  if (config.partitions == 0) {
    if (error != nullptr) *error = "partitions must be positive";
    return Status::kBadRequest;
  }
  threads = std::max(1, threads);
  std::shared_ptr<Payload> payload =
      Decompose(state, config, state.handle.graph(), threads);
  baselines_built_->Increment();
  // A tracked configuration is always answerable from cache on the sealed
  // epoch — starting with the one it was just tracked on.
  cache_->Put(CacheKey{state.name, state.handle.epoch(), config.kind,
                       AlgorithmFor(config.kind), config.partitions},
              std::move(payload));
  return Status::kOk;
}

std::shared_ptr<Payload> LiveGraphManager::Decompose(
    LiveGraphState& state, const LiveConfig& config,
    const BipartiteGraph& graph, int threads) {
  Request request;
  request.kind = config.kind;
  request.algorithm = AlgorithmFor(config.kind);
  request.partitions = static_cast<int>(config.partitions);
  request.threads = threads;
  // HUC never changes results, and on live seals it costs: with it on,
  // routed_mixed's seal latency (side_p50_ms) rose from about 51 ms to
  // 72.8 ms (median of 3 runs on a 4-vCPU VM).
  std::shared_ptr<Payload> payload =
      RunDecomposition(graph, request, state.pool, /*use_huc=*/false);
  state.tracked[config] = payload->numbers;
  return payload;
}

ApplyResult LiveGraphManager::Apply(const JournalRecord& record,
                                    int threads) {
  ApplyResult result;
  if (record.graph.empty()) {
    result.status = Status::kBadRequest;
    result.error = "graph name must not be empty";
    return result;
  }
  LiveGraphState* state = GetOrCreateState(
      record.graph, record.type == JournalRecord::Type::kRegister);
  if (state == nullptr) {
    if (record.type == JournalRecord::Type::kUnregister) return result;
    result.status = Status::kNotFound;
    result.chain_mismatch = true;
    result.error = "graph '" + record.graph + "' is not registered";
    return result;
  }
  std::lock_guard<std::mutex> lock(state->mu);
  ApplyLocked(*state, record, threads, &result);
  return result;
}

bool LiveGraphManager::ApplyLocked(LiveGraphState& state,
                                   const JournalRecord& record, int threads,
                                   ApplyResult* result) {
  const auto reject = [result](Status status, std::string error) {
    result->status = status;
    result->error = std::move(error);
    return false;
  };
  const GraphHandle current = state.handle;
  switch (record.type) {
    case JournalRecord::Type::kRegister:
      if (record.epoch == 0) {
        return reject(Status::kBadRequest, "epoch must be positive");
      }
      for (const Edge& e : record.edges) {
        if (e.u >= record.num_u || e.v >= record.num_v) {
          return reject(Status::kBadRequest,
                        "registration of '" + record.graph +
                            "' has out-of-shape edges");
        }
      }
      break;
    case JournalRecord::Type::kUnregister:
      if (!current) return true;  // nothing to evict
      break;
    case JournalRecord::Type::kEdgeBatch:
    case JournalRecord::Type::kSeal:
      if (!current) {
        result->chain_mismatch = true;
        return reject(Status::kNotFound,
                      "graph '" + record.graph + "' is not registered");
      }
      if (current.epoch() != record.epoch) {
        result->chain_mismatch = true;
        return reject(
            Status::kBadRequest,
            std::string("epoch chain broken: ") +
                (record.type == JournalRecord::Type::kSeal ? "seal"
                                                            : "batch") +
                " for '" + record.graph + "' recorded at " +
                std::to_string(record.epoch) + ", graph is at " +
                std::to_string(current.epoch()));
      }
      if (record.type == JournalRecord::Type::kSeal &&
          record.new_epoch <= record.epoch) {
        return reject(Status::kBadRequest,
                      "sealed epoch " + std::to_string(record.new_epoch) +
                          " must exceed the pre-seal epoch " +
                          std::to_string(record.epoch));
      }
      for (const EdgeUpdate& update : record.updates) {
        if (update.u >= current.graph().num_u() ||
            update.v >= current.graph().num_v()) {
          return reject(Status::kBadRequest,
                        "edge (" + std::to_string(update.u) + ", " +
                            std::to_string(update.v) +
                            ") lies outside the registered shape; "
                            "re-register the graph to grow it");
        }
      }
      break;
  }

  // Write-ahead: a record must be durable before it is applied, because
  // applying is what acknowledges it. A failed append rejects the record —
  // the journal has already rolled its tail back, so the on-disk record
  // set stays exactly the applied set.
  if (durability_ != nullptr) {
    std::string log_error;
    if (!durability_->Append(record, &log_error)) {
      return reject(Status::kShutdown, "durability: " + log_error);
    }
  }

  switch (record.type) {
    case JournalRecord::Type::kRegister:
      registry_->RegisterAtEpoch(
          record.graph,
          BipartiteGraph::FromEdges(record.num_u, record.num_v,
                                    {record.edges.begin(),
                                     record.edges.end()}),
          record.epoch);
      // The registration supersedes everything live under the name: the
      // buffer and tracked numbers belong to the graph it replaced.
      ResetLocked(state, registry_->Acquire(record.graph));
      if (current) cache_->DropEpoch(current.epoch());
      break;
    case JournalRecord::Type::kUnregister:
      registry_->Evict(record.graph);
      ResetLocked(state, GraphHandle());
      cache_->DropEpoch(current.epoch());
      break;
    case JournalRecord::Type::kEdgeBatch: {
      const size_t count = record.updates.size();
      state.pending.insert(state.pending.end(), record.updates.begin(),
                           record.updates.end());
      batches_total_->Increment();
      updates_total_->Increment(count);
      pending_edges_->Add(static_cast<int64_t>(count));
      break;
    }
    case JournalRecord::Type::kSeal:
      SealLocked(state, record.new_epoch, threads, result);
      break;
  }
  result->epoch = state.handle ? state.handle.epoch() : 0;
  result->pending = state.pending.size();
  return true;
}

void LiveGraphManager::ResetLocked(LiveGraphState& state, GraphHandle handle) {
  state.handle = std::move(handle);
  state.tracked.clear();
  ClearPendingLocked(state);
}

void LiveGraphManager::ClearPendingLocked(LiveGraphState& state) {
  pending_edges_->Add(-static_cast<int64_t>(state.pending.size()));
  state.pending.clear();
}

ApplyResult LiveGraphManager::ApplyEdges(const std::string& name,
                                         std::span<const EdgeUpdate> updates,
                                         bool force_seal, int threads,
                                         std::span<const LiveConfig> track) {
  ApplyResult result;
  LiveGraphState* state = GetOrCreateState(name);
  std::unique_lock<std::mutex> lock;
  if (state != nullptr) lock = std::unique_lock<std::mutex>(state->mu);
  if (state == nullptr || !state->handle) {
    result.status = Status::kNotFound;
    result.error = "graph '" + name + "' is not registered";
    return result;
  }

  for (const LiveConfig& config : track) {
    if (state->tracked.contains(config)) continue;
    const Status status = TrackLocked(*state, config, threads, &result.error);
    if (status != Status::kOk) {
      result.status = status;
      return result;
    }
  }
  result.epoch = state->handle.epoch();
  result.pending = state->pending.size();

  if (!updates.empty()) {
    JournalRecord batch;
    batch.type = JournalRecord::Type::kEdgeBatch;
    batch.graph = name;
    batch.epoch = state->handle.epoch();
    batch.updates.assign(updates.begin(), updates.end());
    if (!ApplyLocked(*state, batch, threads, &result)) return result;
    result.records.push_back(std::move(batch));
    result.accepted = updates.size();
  }

  const bool seal =
      force_seal || state->pending.size() >= options_.max_pending_edges;
  if (seal && !state->pending.empty()) {
    JournalRecord seal_record;
    seal_record.type = JournalRecord::Type::kSeal;
    seal_record.graph = name;
    seal_record.epoch = state->handle.epoch();
    seal_record.new_epoch = registry_->AllocateEpoch();
    if (!ApplyLocked(*state, seal_record, threads, &result)) return result;
    result.records.push_back(std::move(seal_record));
  }
  return result;
}

std::vector<JournalRecord> LiveGraphManager::StateRecords(
    const std::string& name) {
  std::vector<JournalRecord> records;
  LiveGraphState* state = GetOrCreateState(name);
  if (state == nullptr) return records;
  std::lock_guard<std::mutex> lock(state->mu);
  if (!state->handle) return records;
  const BipartiteGraph& graph = state->handle.graph();
  JournalRecord registration;
  registration.type = JournalRecord::Type::kRegister;
  registration.graph = name;
  registration.epoch = state->handle.epoch();
  registration.num_u = graph.num_u();
  registration.num_v = graph.num_v();
  registration.edges = graph.ToEdges();
  records.push_back(std::move(registration));
  if (!state->pending.empty()) {
    JournalRecord batch;
    batch.type = JournalRecord::Type::kEdgeBatch;
    batch.graph = name;
    batch.epoch = state->handle.epoch();
    batch.updates = state->pending;
    records.push_back(std::move(batch));
  }
  return records;
}

void LiveGraphManager::SealLocked(LiveGraphState& state, uint64_t new_epoch,
                                  int threads, ApplyResult* result) {
  const WallTimer timer;
  threads = std::max(1, threads);
  const GraphHandle old_handle = state.handle;  // keeps the old graph alive
  const BipartiteGraph& old_graph = old_handle.graph();

  // Fold the buffer: the last operation on each (u, v) wins.
  std::map<Edge, bool> ops;
  for (const EdgeUpdate& update : state.pending) {
    ops[Edge{update.u, update.v}] = update.insert;
  }

  // One merge pass over the sorted current edge list and the sorted ops
  // produces the new sorted edge list.
  const std::vector<Edge> old_edges = old_graph.ToEdges();
  std::vector<Edge> new_edges;
  new_edges.reserve(old_edges.size() + ops.size());
  auto op = ops.begin();
  for (const Edge& e : old_edges) {
    for (; op != ops.end() && op->first < e; ++op) {
      if (op->second) new_edges.push_back(op->first);
    }
    if (op != ops.end() && op->first == e) {
      const bool keep = op->second;  // inserting a present edge is a no-op
      ++op;
      if (!keep) continue;
    }
    new_edges.push_back(e);
  }
  for (; op != ops.end(); ++op) {
    if (op->second) new_edges.push_back(op->first);
  }
  BipartiteGraph new_graph = BipartiteGraph::FromEdges(
      old_graph.num_u(), old_graph.num_v(), std::move(new_edges));

  // Decompose the new graph once per tracked configuration, collecting the
  // payloads that will prime the cache under the epoch about to install.
  std::vector<std::pair<CacheKey, std::shared_ptr<Payload>>> primes;
  for (const auto& entry : state.tracked) {
    const LiveConfig& config = entry.first;
    primes.emplace_back(
        CacheKey{state.name, new_epoch, config.kind, AlgorithmFor(config.kind),
                 config.partitions},
        Decompose(state, config, new_graph, threads));
    result->reports.push_back(
        SealConfigReport{config, primes.back().second->stats.num_subsets});
  }

  // Install the new epoch. Requests admitted before this line served the
  // old snapshot; everything after resolves to the sealed graph. Apply
  // journaled the seal record before this run, so a crash anywhere in it
  // replays as the same seal at the same epoch.
  registry_->RegisterAtEpoch(state.name, std::move(new_graph), new_epoch);
  state.handle = registry_->Acquire(state.name);
  cache_->DropEpoch(old_handle.epoch());
  for (auto& [key, payload] : primes) cache_->Put(key, std::move(payload));

  ClearPendingLocked(state);

  result->sealed = true;
  result->epoch = new_epoch;
  result->seal_seconds = timer.Seconds();
  result->seal_threads = threads;
  seal_seconds_->ObserveSeconds(result->seal_seconds);

  seal_runs_->Increment(result->reports.size());

  // Snapshot-on-seal compacts the journal to (roughly) one snapshot per
  // graph plus the records since. Recovery has no durability layer yet,
  // so replayed seals write nothing until the process is serving again.
  if (durability_ != nullptr && durability_->snapshot_on_seal()) {
    std::string snap_error;
    WriteSnapshotLocked(state, &snap_error);
  }
}

void LiveGraphManager::SetDurability(
    durability::DurabilityManager* durability) {
  durability_ = durability;
}

bool LiveGraphManager::WriteSnapshotLocked(LiveGraphState& state,
                                           std::string* error) {
  durability::SnapshotData data;
  data.graph = state.name;
  data.epoch = state.handle.epoch();
  data.num_u = state.handle.graph().num_u();
  data.num_v = state.handle.graph().num_v();
  data.edges = state.handle.graph().ToEdges();
  data.pending = state.pending;
  // `bounds` and `old_support` stay empty: the format keeps them, nothing
  // reads them.
  for (const auto& [config, numbers] : state.tracked) {
    durability::SnapshotConfig out;
    out.kind = static_cast<uint8_t>(config.kind);
    out.partitions = config.partitions;
    out.numbers = numbers;
    data.configs.push_back(std::move(out));
  }
  return durability_->WriteSnapshot(&data, error);
}

Status LiveGraphManager::RestoreSnapshot(const durability::SnapshotData& data,
                                         std::string* error) {
  for (const Edge& e : data.edges) {
    if (e.u >= data.num_u || e.v >= data.num_v) {
      if (error != nullptr) {
        *error = "snapshot for '" + data.graph + "' has out-of-shape edges";
      }
      return Status::kBadRequest;
    }
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(
      data.num_u, data.num_v, {data.edges.begin(), data.edges.end()});
  // Every config is checked before anything is installed, so a rejected
  // snapshot leaves the registry and the cache untouched.
  for (const auto& config : data.configs) {
    if (config.kind > static_cast<uint8_t>(RequestKind::kWing) ||
        config.partitions == 0) {
      if (error != nullptr) {
        *error = "snapshot for '" + data.graph + "' has an invalid config";
      }
      return Status::kBadRequest;
    }
    const RequestKind kind = static_cast<RequestKind>(config.kind);
    const uint64_t expected = kind == RequestKind::kTipU   ? graph.num_u()
                              : kind == RequestKind::kTipV ? graph.num_v()
                                                           : graph.num_edges();
    if (config.numbers.size() != expected) {
      if (error != nullptr) {
        *error = "snapshot for '" + data.graph + "' has " +
                 std::to_string(config.numbers.size()) + " " +
                 RequestKindName(kind) + " numbers, expected " +
                 std::to_string(expected);
      }
      return Status::kBadRequest;
    }
  }

  LiveGraphState* state = GetOrCreateState(data.graph, /*registering=*/true);
  std::lock_guard<std::mutex> lock(state->mu);
  registry_->RegisterAtEpoch(data.graph, std::move(graph), data.epoch);
  ResetLocked(*state, registry_->Acquire(data.graph));
  state->pending = data.pending;
  pending_edges_->Add(static_cast<int64_t>(state->pending.size()));

  for (const auto& config : data.configs) {
    const LiveConfig live{static_cast<RequestKind>(config.kind),
                          config.partitions};
    // A restored config is tracked: a later batch that lists it runs
    // nothing, and the next seal decomposes it like any other.
    state->tracked[live] = config.numbers;
    // The sealed numbers are servable immediately: prime the cache under
    // the restored epoch, exactly as the pre-crash seal did.
    auto payload = std::make_shared<Payload>();
    payload->numbers = config.numbers;
    cache_->Put(CacheKey{data.graph, data.epoch, live.kind,
                         AlgorithmFor(live.kind), live.partitions},
                std::move(payload));
  }
  return Status::kOk;
}

Status LiveGraphManager::SnapshotNow(const std::string& name,
                                     std::string* error) {
  if (durability_ == nullptr) {
    if (error != nullptr) *error = "durability is not enabled (no data dir)";
    return Status::kBadRequest;
  }
  if (LiveGraphState* state = GetOrCreateState(name)) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->handle) {
      return WriteSnapshotLocked(*state, error) ? Status::kOk
                                                : Status::kShutdown;
    }
  }
  if (error != nullptr) *error = "graph '" + name + "' is not registered";
  return Status::kNotFound;
}

size_t LiveGraphManager::PendingEdges(const std::string& name) const {
  LiveGraphState* state = FindState(name);
  if (state == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state->mu);
  return state->pending.size();
}

LiveGraphManager::Stats LiveGraphManager::stats() const {
  Stats stats;
  stats.batches_total = batches_total_->Value();
  stats.updates_total = updates_total_->Value();
  stats.seals_total = seal_seconds_->Count();
  stats.runs_full = seal_runs_->Value();
  stats.baselines_built = baselines_built_->Value();
  stats.pending_edges = pending_edges_->Value();
  return stats;
}

}  // namespace receipt::service

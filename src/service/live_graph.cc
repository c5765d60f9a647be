#include "service/live_graph.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "tip/receipt_cd.h"
#include "tip/receipt_fd.h"
#include "tip/tip_common.h"
#include "util/timer.h"
#include "wing/receipt_wing.h"

namespace receipt::service {

namespace {

using Edge = BipartiteGraph::Edge;
using durability::JournalRecord;

/// Sentinel in the old→new edge-id map for edges the batch deleted.
constexpr EdgeOffset kNoEdge = ~EdgeOffset{0};

TipOptions TipSealOptions(const LiveConfig& config, int threads,
                          engine::WorkspacePool* pool) {
  TipOptions options;
  options.side = Side::kU;  // the caller orients the graph
  options.num_threads = threads;
  options.num_partitions = static_cast<int>(config.partitions);
  // HUC recounts rewrite every alive support mid-run, which forces the
  // boundary patch log into a full snapshot and invalidates it for the
  // next seal. HUC never changes results (RECEIPT-- equivalence), so seal
  // runs simply pin it off to keep every run's log replayable.
  options.use_huc = false;
  options.workspace_pool = pool;
  return options;
}

ReceiptWingOptions WingSealOptions(const LiveConfig& config, int threads,
                                   engine::WorkspacePool* pool) {
  ReceiptWingOptions options;
  options.num_threads = threads;
  options.num_partitions = static_cast<int>(config.partitions);
  options.workspace_pool = pool;
  return options;
}

uint64_t CountNonZero(std::span<const uint8_t> flags) {
  uint64_t count = 0;
  for (const uint8_t f : flags) count += f != 0;
  return count;
}

Algorithm AlgorithmFor(RequestKind kind) {
  return kind == RequestKind::kWing ? Algorithm::kReceiptWing
                                    : Algorithm::kReceipt;
}

}  // namespace

LiveGraphManager::LiveGraphManager(GraphRegistry& registry, ResultCache& cache,
                                   const LiveOptions& options,
                                   obs::Observability& obs)
    : registry_(&registry), cache_(&cache), options_(options), obs_(&obs) {
  RegisterInstruments();
}

void LiveGraphManager::RegisterInstruments() {
  obs::MetricsRegistry& m = obs_->metrics;
  seals_incremental_ =
      m.GetCounter("receipt_live_seal_runs_total",
                   "Per-configuration live-seal engine runs, by mode.",
                   {{"mode", "incremental"}});
  seals_full_ =
      m.GetCounter("receipt_live_seal_runs_total",
                   "Per-configuration live-seal engine runs, by mode.",
                   {{"mode", "full"}});
  ranges_reused_total_ =
      m.GetCounter("receipt_live_ranges_total",
                   "Sealed coarse ranges at seal time, by disposition.",
                   {{"state", "reused"}});
  ranges_repeeled_total_ =
      m.GetCounter("receipt_live_ranges_total",
                   "Sealed coarse ranges at seal time, by disposition.",
                   {{"state", "repeeled"}});
  updates_total_ = m.GetCounter("receipt_live_updates_total",
                                "Edge updates buffered into live graphs.");
  pending_gauge_ =
      m.GetGauge("receipt_live_pending_edges",
                 "Edge updates currently buffered across live graphs.");
  dirty_permille_ = m.GetGauge(
      "receipt_live_dirty_permille",
      "Re-peeled fraction of the most recent seal's ranges, in permille.");
  seal_seconds_ = m.GetHistogram("receipt_live_seal_seconds",
                                 "Wall time of live-update seals.");
}

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
  threads = threads > 0 ? threads : std::max(1, options_.seal_threads);
  const BipartiteGraph& graph = state.handle.graph();
  PeelStats stats;
  std::shared_ptr<Payload> payload;
  Algorithm algorithm = Algorithm::kReceipt;
  if (config.kind == RequestKind::kWing) {
    algorithm = Algorithm::kReceiptWing;
    Baseline<EdgeOffset>& b = state.wing[config];
    const ReceiptWingOptions options =
        WingSealOptions(config, threads, &state.pool);
    WingIncremental inc;
    inc.record = &b.log;
    inc.initial_support = &b.old_support;
    b.sealed = ReceiptWingCoarse(graph, options, &stats, inc);
    b.numbers.assign(graph.num_edges(), 0);
    ReceiptWingFine(graph, b.sealed, options, std::span<Count>(b.numbers),
                    &stats, {});
    b.valid = b.log.valid;
    payload = std::make_shared<Payload>();
    payload->numbers = b.numbers;
  } else {
    Baseline<VertexId>& b = state.tip[config];
    const bool v_side = config.kind == RequestKind::kTipV;
    BipartiteGraph swapped;
    const BipartiteGraph* oriented = &graph;
    if (v_side) {
      swapped = graph.SwappedCopy();
      oriented = &swapped;
    }
    const TipOptions options = TipSealOptions(config, threads, &state.pool);
    CdIncremental inc;
    inc.record = &b.log;
    inc.initial_support = &b.old_support;
    b.sealed = ReceiptCd(*oriented, options, state.pool, &stats, inc);
    b.numbers.assign(oriented->num_u(), 0);
    ReceiptFd(*oriented, b.sealed, options, state.pool,
              std::span<Count>(b.numbers), &stats, {});
    b.valid = b.log.valid;
    payload = std::make_shared<Payload>();
    payload->numbers = b.numbers;
  }
  payload->stats = stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.baselines_built;
  }
  // A tracked configuration is always answerable from cache on the sealed
  // epoch — starting with the one its baseline was just built on.
  cache_->Put(CacheKey{state.name, state.handle.epoch(), config.kind,
                       algorithm, config.partitions},
              std::move(payload));
  return Status::kOk;
}

bool LiveGraphManager::HasBaselineLocked(
    const LiveGraphState& state, const LiveConfig& config) const {
  if (config.kind == RequestKind::kWing) {
    const auto it = state.wing.find(config);
    return it != state.wing.end() && it->second.valid;
  }
  const auto it = state.tip.find(config);
  return it != state.tip.end() && it->second.valid;
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
      // buffer and baselines belong to the graph it replaced.
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
      if (state.pending.empty() && count > 0) {
        state.first_pending_ns = obs::TraceRecorder::NowNs();
      }
      state.pending.insert(state.pending.end(), record.updates.begin(),
                           record.updates.end());
      updates_total_->Increment(count);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.batches_total;
      stats_.updates_total += count;
      stats_.pending_edges += count;
      pending_gauge_->Set(stats_.pending_edges);
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
  state.tip.clear();
  state.wing.clear();
  ClearPendingLocked(state);
}

void LiveGraphManager::ClearPendingLocked(LiveGraphState& state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.pending_edges -= state.pending.size();
    pending_gauge_->Set(stats_.pending_edges);
  }
  state.pending.clear();
  state.first_pending_ns = 0;
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
    if (HasBaselineLocked(*state, config)) continue;
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

  bool seal = force_seal;
  if (state->pending.size() >= options_.max_pending_edges) seal = true;
  if (options_.max_staleness_ms > 0 && state->first_pending_ns != 0) {
    const uint64_t age_ns =
        obs::TraceRecorder::NowNs() - state->first_pending_ns;
    if (age_ns / 1'000'000 >= options_.max_staleness_ms) seal = true;
  }
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
  threads = threads > 0 ? threads : std::max(1, options_.seal_threads);
  const GraphHandle old_handle = state.handle;  // keeps the old graph alive
  const BipartiteGraph& old_graph = old_handle.graph();
  // Sorted (u asc, then v): for wing this order *is* the edge-id order,
  // which the old->new edge-id map below exploits.
  const std::vector<Edge> old_edges = old_graph.ToEdges();

  // Fold the buffer: the last operation on each (u, v) wins, and only
  // operations that actually change edge presence count as changes.
  std::map<Edge, bool> ops;
  for (const EdgeUpdate& update : state.pending) {
    ops[Edge{update.u, update.v}] = update.insert;
  }

  // One merge pass over the sorted current edge list and the sorted ops
  // produces the new sorted edge list, the changed-edge set, and — because
  // sorted (u, v) rank *is* the wing edge id — the old→new edge-id map.
  std::vector<Edge> new_edges;
  new_edges.reserve(old_edges.size() + ops.size());
  std::vector<Edge> changed;
  std::vector<EdgeOffset> old_to_new(old_edges.size(), kNoEdge);
  auto op = ops.begin();
  for (size_t i = 0; i < old_edges.size(); ++i) {
    const Edge e = old_edges[i];
    while (op != ops.end() && op->first < e) {
      if (op->second) {
        changed.push_back(op->first);
        new_edges.push_back(op->first);
      }
      ++op;
    }
    bool keep = true;
    if (op != ops.end() && op->first == e) {
      if (!op->second) {
        keep = false;
        changed.push_back(e);
      }
      ++op;  // inserting a present edge is a no-op
    }
    if (keep) {
      old_to_new[i] = static_cast<EdgeOffset>(new_edges.size());
      new_edges.push_back(e);
    }
  }
  for (; op != ops.end(); ++op) {
    if (op->second) {
      changed.push_back(op->first);
      new_edges.push_back(op->first);
    }
  }

  BipartiteGraph new_graph = BipartiteGraph::FromEdges(
      old_graph.num_u(), old_graph.num_v(), std::move(new_edges));

  // Run every tracked configuration against the new graph — incrementally
  // when its baseline allows — collecting the payloads that will prime the
  // cache under the epoch we are about to install.
  std::vector<std::pair<CacheKey, std::shared_ptr<Payload>>> primes;
  for (auto& [config, baseline] : state.tip) {
    SealConfigReport report;
    auto payload = SealTip(state, config, baseline, old_graph, new_graph,
                           changed, threads, &report);
    primes.emplace_back(CacheKey{state.name, 0, config.kind,
                                 Algorithm::kReceipt, config.partitions},
                        std::move(payload));
    result->reports.push_back(std::move(report));
  }
  for (auto& [config, baseline] : state.wing) {
    SealConfigReport report;
    auto payload = SealWing(state, config, baseline, old_graph, new_graph,
                            changed, old_to_new, threads, &report);
    primes.emplace_back(CacheKey{state.name, 0, config.kind,
                                 Algorithm::kReceiptWing, config.partitions},
                        std::move(payload));
    result->reports.push_back(std::move(report));
  }

  // Install the new epoch. Requests admitted before this line served the
  // old snapshot; everything after resolves to the sealed graph. Apply
  // journaled the seal record before this run, so a crash anywhere in it
  // replays as the same seal at the same epoch.
  registry_->RegisterAtEpoch(state.name, std::move(new_graph), new_epoch);
  state.handle = registry_->Acquire(state.name);
  cache_->DropEpoch(old_handle.epoch());
  for (auto& [key, payload] : primes) {
    CacheKey keyed = key;
    keyed.epoch = new_epoch;
    cache_->Put(keyed, std::move(payload));
  }

  ClearPendingLocked(state);

  result->sealed = true;
  result->epoch = new_epoch;
  result->seal_seconds = timer.Seconds();
  result->seal_threads = threads;
  seal_seconds_->ObserveSeconds(result->seal_seconds);

  uint64_t reused = 0;
  uint64_t repeeled = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.seals_total;
    for (const SealConfigReport& report : result->reports) {
      if (report.incremental) {
        ++stats_.runs_incremental;
        seals_incremental_->Increment();
      } else {
        ++stats_.runs_full;
        seals_full_->Increment();
      }
      stats_.ranges_reused += report.ranges_reused;
      stats_.ranges_repeeled += report.ranges_repeeled;
      reused += report.ranges_reused;
      repeeled += report.ranges_repeeled;
    }
  }
  ranges_reused_total_->Increment(reused);
  ranges_repeeled_total_->Increment(repeeled);
  if (reused + repeeled > 0) {
    dirty_permille_->Set(repeeled * 1000 / (reused + repeeled));
  }

  // Snapshot-on-seal compacts the journal to (roughly) one snapshot per
  // graph plus the records since. Recovery has no durability layer yet,
  // so replayed seals write nothing until the process is serving again.
  if (durability_ != nullptr && durability_->snapshot_on_seal()) {
    std::string snap_error;
    WriteSnapshotLocked(state, &snap_error);
  }
}

std::shared_ptr<Payload> LiveGraphManager::SealTip(
    LiveGraphState& state, const LiveConfig& config,
    Baseline<VertexId>& baseline, const BipartiteGraph& old_graph,
    const BipartiteGraph& new_graph, std::span<const Edge> changed,
    int threads, SealConfigReport* report) {
  const bool v_side = config.kind == RequestKind::kTipV;
  const VertexId n = v_side ? new_graph.num_v() : new_graph.num_u();

  // Structural dirty set: for each changed edge (u, v), the peeled-side
  // endpoint plus every peeled-side vertex that shares the opposite
  // endpoint in either the old or the new graph. Every butterfly the batch
  // created or destroyed has all of its peelable vertices inside this set,
  // which is exactly what the engine's clean-range proof requires.
  std::vector<uint8_t> dirty(n, 0);
  for (const Edge& e : changed) {
    if (!v_side) {
      dirty[e.u] = 1;
      for (const VertexId w : old_graph.Neighbors(old_graph.VGlobal(e.v))) {
        dirty[w] = 1;
      }
      for (const VertexId w : new_graph.Neighbors(new_graph.VGlobal(e.v))) {
        dirty[w] = 1;
      }
    } else {
      dirty[e.v] = 1;
      for (const VertexId w : old_graph.Neighbors(e.u)) {
        dirty[w - old_graph.num_u()] = 1;
      }
      for (const VertexId w : new_graph.Neighbors(e.u)) {
        dirty[w - new_graph.num_u()] = 1;
      }
    }
  }

  BipartiteGraph swapped;
  const BipartiteGraph* oriented = &new_graph;
  if (v_side) {
    swapped = new_graph.SwappedCopy();
    oriented = &swapped;
  }

  const TipOptions options = TipSealOptions(config, threads, &state.pool);
  PeelStats stats;
  engine::IncrementalSeed<VertexId> seed;
  engine::IncrementalOutcome outcome;
  engine::CoarsePatchLog new_log;
  std::vector<Count> new_initial;
  CdIncremental inc;
  inc.record = &new_log;
  inc.initial_support = &new_initial;
  // Tip entity ids are stable across seals (the shape is fixed), so the
  // baseline seeds the run as-is.
  const bool seeded = baseline.valid && baseline.log.valid &&
                      baseline.old_support.size() == n &&
                      baseline.numbers.size() == n;
  if (seeded) {
    seed.sealed = &baseline.sealed;
    seed.log = &baseline.log;
    seed.old_support = baseline.old_support;
    seed.structural_dirty = dirty;
    seed.dirty_fraction_limit = options_.dirty_fraction_limit;
    inc.seed = &seed;
    inc.outcome = &outcome;
  }
  CdResult cd = ReceiptCd(*oriented, options, state.pool, &stats, inc);

  std::vector<Count> numbers;
  std::span<const uint8_t> only;
  if (seeded) {
    numbers = baseline.numbers;  // clean subsets keep their sealed numbers
    only = outcome.subset_dirty;
  } else {
    numbers.assign(n, 0);
  }
  ReceiptFd(*oriented, cd, options, state.pool, std::span<Count>(numbers),
            &stats, only);

  report->config = config;
  report->subsets_total = cd.subsets.size();
  report->incremental = seeded && !outcome.fell_back_full;
  if (seeded) {
    report->ranges_reused = outcome.ranges_reused;
    report->ranges_repeeled = outcome.ranges_repeeled;
    report->subsets_repeeled = CountNonZero(outcome.subset_dirty);
  } else {
    report->ranges_repeeled = cd.subsets.size();
    report->subsets_repeeled = cd.subsets.size();
  }

  baseline.sealed = std::move(cd);
  baseline.log = std::move(new_log);
  baseline.old_support = std::move(new_initial);
  baseline.numbers = numbers;
  baseline.valid = baseline.log.valid;

  auto payload = std::make_shared<Payload>();
  payload->numbers = std::move(numbers);
  payload->stats = stats;
  return payload;
}

std::shared_ptr<Payload> LiveGraphManager::SealWing(
    LiveGraphState& state, const LiveConfig& config,
    Baseline<EdgeOffset>& baseline, const BipartiteGraph& old_graph,
    const BipartiteGraph& new_graph, std::span<const Edge> changed,
    std::span<const EdgeOffset> old_to_new, int threads,
    SealConfigReport* report) {
  const uint64_t new_m = new_graph.num_edges();

  // Structural dirty set over edges: every edge incident to a U vertex
  // that any changed butterfly can touch — the changed edges' U endpoints
  // plus the old/new U-neighborhoods of their V endpoints. Edge ids of a
  // U vertex are its contiguous U-side CSR slots.
  std::vector<uint8_t> marked_u(new_graph.num_u(), 0);
  for (const Edge& e : changed) {
    marked_u[e.u] = 1;
    for (const VertexId w : old_graph.Neighbors(old_graph.VGlobal(e.v))) {
      marked_u[w] = 1;
    }
    for (const VertexId w : new_graph.Neighbors(new_graph.VGlobal(e.v))) {
      marked_u[w] = 1;
    }
  }
  std::vector<uint8_t> dirty(new_m, 0);
  const std::span<const EdgeOffset> offsets = new_graph.offsets();
  for (VertexId u = 0; u < new_graph.num_u(); ++u) {
    if (!marked_u[u]) continue;
    for (EdgeOffset e = offsets[u]; e < offsets[u + 1]; ++e) dirty[e] = 1;
  }

  // Remap the sealed baseline into the new edge-id space. Deleted edges
  // drop out of member lists and the patch log; a subset that lost a
  // member no longer matches the sealed peel order, so it is force-dirty.
  // Inserted edges carry the kInvalidCount did-not-exist sentinel.
  engine::RangeResult<EdgeOffset> remapped;
  engine::CoarsePatchLog remapped_log;
  std::vector<uint8_t> force_dirty;
  std::vector<Count> old_support_new;
  std::vector<Count> numbers_new;
  const bool seeded = baseline.valid && baseline.log.valid &&
                      baseline.old_support.size() == old_to_new.size() &&
                      baseline.numbers.size() == old_to_new.size();
  if (seeded) {
    remapped.bounds = baseline.sealed.bounds;
    const size_t num_subsets = baseline.sealed.subsets.size();
    remapped.subsets.resize(num_subsets);
    force_dirty.assign(num_subsets, 0);
    for (size_t i = 0; i < num_subsets; ++i) {
      std::vector<EdgeOffset>& out = remapped.subsets[i];
      out.reserve(baseline.sealed.subsets[i].size());
      for (const EdgeOffset old_id : baseline.sealed.subsets[i]) {
        const EdgeOffset mapped = old_to_new[old_id];
        if (mapped == kNoEdge) {
          force_dirty[i] = 1;
        } else {
          out.push_back(mapped);
        }
      }
    }
    remapped.subset_of.assign(new_m, 0);
    for (size_t i = 0; i < num_subsets; ++i) {
      for (const EdgeOffset e : remapped.subsets[i]) {
        remapped.subset_of[e] = static_cast<uint32_t>(i);
      }
    }
    remapped_log.ranges.resize(baseline.log.ranges.size());
    for (size_t i = 0; i < baseline.log.ranges.size(); ++i) {
      for (const auto& [old_id, value] : baseline.log.ranges[i]) {
        const EdgeOffset mapped = old_to_new[old_id];
        if (mapped != kNoEdge) {
          remapped_log.ranges[i].emplace_back(mapped, value);
        }
      }
    }
    old_support_new.assign(new_m, kInvalidCount);
    numbers_new.assign(new_m, 0);
    for (size_t i = 0; i < old_to_new.size(); ++i) {
      if (old_to_new[i] != kNoEdge) {
        old_support_new[old_to_new[i]] = baseline.old_support[i];
        numbers_new[old_to_new[i]] = baseline.numbers[i];
      }
    }
  }

  const ReceiptWingOptions options =
      WingSealOptions(config, threads, &state.pool);
  PeelStats stats;
  engine::IncrementalSeed<EdgeOffset> seed;
  engine::IncrementalOutcome outcome;
  engine::CoarsePatchLog new_log;
  std::vector<Count> new_initial;
  WingIncremental inc;
  inc.record = &new_log;
  inc.initial_support = &new_initial;
  if (seeded) {
    seed.sealed = &remapped;
    seed.log = &remapped_log;
    seed.old_support = old_support_new;
    seed.structural_dirty = dirty;
    seed.force_dirty_subset = force_dirty;
    seed.dirty_fraction_limit = options_.dirty_fraction_limit;
    inc.seed = &seed;
    inc.outcome = &outcome;
  }
  engine::RangeResult<EdgeOffset> coarse =
      ReceiptWingCoarse(new_graph, options, &stats, inc);

  std::vector<Count> numbers;
  std::span<const uint8_t> only;
  if (seeded) {
    numbers = std::move(numbers_new);  // clean subsets keep sealed numbers
    only = outcome.subset_dirty;
  } else {
    numbers.assign(new_m, 0);
  }
  ReceiptWingFine(new_graph, coarse, options, std::span<Count>(numbers),
                  &stats, only);

  report->config = config;
  report->subsets_total = coarse.subsets.size();
  report->incremental = seeded && !outcome.fell_back_full;
  if (seeded) {
    report->ranges_reused = outcome.ranges_reused;
    report->ranges_repeeled = outcome.ranges_repeeled;
    report->subsets_repeeled = CountNonZero(outcome.subset_dirty);
  } else {
    report->ranges_repeeled = coarse.subsets.size();
    report->subsets_repeeled = coarse.subsets.size();
  }

  baseline.sealed = std::move(coarse);
  baseline.log = std::move(new_log);
  baseline.old_support = std::move(new_initial);
  baseline.numbers = numbers;
  baseline.valid = baseline.log.valid;

  auto payload = std::make_shared<Payload>();
  payload->numbers = std::move(numbers);
  payload->stats = stats;
  return payload;
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
  for (const auto& [config, baseline] : state.tip) {
    durability::SnapshotConfig out;
    out.kind = static_cast<uint8_t>(config.kind);
    out.partitions = config.partitions;
    out.numbers = baseline.numbers;
    out.bounds = baseline.sealed.bounds;
    out.old_support = baseline.old_support;
    data.configs.push_back(std::move(out));
  }
  for (const auto& [config, baseline] : state.wing) {
    durability::SnapshotConfig out;
    out.kind = static_cast<uint8_t>(config.kind);
    out.partitions = config.partitions;
    out.numbers = baseline.numbers;
    out.bounds = baseline.sealed.bounds;
    out.old_support = baseline.old_support;
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
  LiveGraphState* state = GetOrCreateState(data.graph, /*registering=*/true);
  std::lock_guard<std::mutex> lock(state->mu);
  registry_->RegisterAtEpoch(
      data.graph,
      BipartiteGraph::FromEdges(data.num_u, data.num_v,
                                {data.edges.begin(), data.edges.end()}),
      data.epoch);
  ResetLocked(*state, registry_->Acquire(data.graph));
  state->pending = data.pending;
  if (!state->pending.empty()) {
    state->first_pending_ns = obs::TraceRecorder::NowNs();
    std::lock_guard<std::mutex> stats_lock(mu_);
    stats_.pending_edges += state->pending.size();
    pending_gauge_->Set(stats_.pending_edges);
  }

  for (const auto& config : data.configs) {
    if (config.kind > static_cast<uint8_t>(RequestKind::kWing) ||
        config.partitions == 0) {
      if (error != nullptr) {
        *error = "snapshot for '" + data.graph + "' has an invalid config";
      }
      return Status::kBadRequest;
    }
    LiveConfig live{static_cast<RequestKind>(config.kind), config.partitions};
    // Restored baselines carry the sealed numbers/bounds/supports but not
    // the patch log, so they cannot seed an incremental seal: valid stays
    // false and the next seal recomputes fully — bit-identical either way.
    if (live.kind == RequestKind::kWing) {
      Baseline<EdgeOffset>& b = state->wing[live];
      b.numbers = config.numbers;
      b.sealed.bounds = config.bounds;
      b.old_support = config.old_support;
      b.valid = false;
    } else {
      Baseline<VertexId>& b = state->tip[live];
      b.numbers = config.numbers;
      b.sealed.bounds = config.bounds;
      b.old_support = config.old_support;
      b.valid = false;
    }
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
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace receipt::service

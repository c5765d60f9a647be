#ifndef RECEIPT_SERVICE_LIVE_GRAPH_H_
#define RECEIPT_SERVICE_LIVE_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "durability/manager.h"
#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "obs/metrics.h"
#include "service/graph_registry.h"
#include "service/result_cache.h"
#include "service/service_types.h"

namespace receipt::service {

/// One edge mutation against a live graph, in side-local coordinates: the
/// journal's own edge op, so a batch is journaled, replicated and replayed
/// as-is. Inserting an existing edge or deleting an absent one is a no-op;
/// within a batch the last operation on a (u, v) pair wins.
using EdgeUpdate = durability::EdgeOp;

/// Seal policy for the live-update path.
struct LiveOptions {
  /// Seal (fold the pending batch into a new epoch) once this many updates
  /// are buffered.
  size_t max_pending_edges = 4096;
};

/// A decomposition configuration kept up to date across seals. kTipU/kTipV
/// pair with RECEIPT, kWing with RECEIPT-W.
struct LiveConfig {
  RequestKind kind = RequestKind::kTipU;
  uint32_t partitions = 150;
  friend bool operator==(const LiveConfig&, const LiveConfig&) = default;
  friend auto operator<=>(const LiveConfig&, const LiveConfig&) = default;
};

/// What one seal did for one tracked configuration.
struct SealConfigReport {
  LiveConfig config;
  uint64_t subsets_total = 0;  ///< coarse subsets the seal's run produced
};

/// Result of one Apply or ApplyEdges call.
struct ApplyResult {
  Status status = Status::kOk;
  std::string error;          ///< set when status != kOk
  /// A batch or seal that does not continue the graph's epoch chain (or
  /// names a graph not registered here): a replica that missed history.
  bool chain_mismatch = false;
  size_t accepted = 0;        ///< updates buffered by this call
  size_t pending = 0;         ///< buffered updates after this call
  bool sealed = false;        ///< this call folded the buffer into an epoch
  uint64_t epoch = 0;         ///< current registry epoch (new when sealed)
  double seal_seconds = 0.0;  ///< wall time of the seal, 0 when not sealed
  int seal_threads = 0;       ///< engine threads the seal ran with
  std::vector<SealConfigReport> reports;  ///< one per tracked config
  /// ApplyEdges: the records it committed, in order (a batch, then a seal
  /// when it sealed) — what a shard owner ships to its followers.
  std::vector<durability::JournalRecord> records;
};

/// The live-update half of the serving layer: resident per-graph state
/// (current edge list, pending update buffer, per-configuration sealed
/// numbers) that folds edge-update batches into new epochs. A seal runs one
/// plain RECEIPT (tip) or RECEIPT-W (wing) decomposition per tracked
/// configuration on the sealed graph: the exactness theorem makes the
/// numbers independent of the partition, so nothing of the previous seal's
/// run needs replaying. The live seal suite asserts the numbers equal a
/// from-scratch decomposition and BUP / WING-BUP bit for bit.
///
/// Reads stay consistent throughout: requests keep resolving against the
/// last sealed registry epoch while updates buffer, and a seal installs
/// the new epoch atomically via GraphRegistry::Register — the
/// update/compute split of the Polynesia-style HTAP designs, applied to
/// decomposition serving. Sealing also primes the ResultCache with the new
/// epoch's numbers and drops the dead epoch's entries, so a post-seal
/// decompose of a tracked configuration is a cache hit, never a recompute.
///
/// Thread safety: per-graph state is guarded by a per-state mutex (seals
/// of different graphs proceed concurrently); the registry and cache are
/// themselves thread-safe.
class LiveGraphManager {
 public:
  /// Counts its events in `metrics` (receipt_live_*); stats() reads them.
  LiveGraphManager(GraphRegistry& registry, ResultCache& cache,
                   const LiveOptions& options, obs::MetricsRegistry& metrics);
  LiveGraphManager(const LiveGraphManager&) = delete;
  LiveGraphManager& operator=(const LiveGraphManager&) = delete;

  /// Starts (or refreshes) live tracking of `name` for `config`: runs one
  /// decomposition on the current graph, stores its numbers and primes the
  /// cache with them. Synchronous. Returns kNotFound for unregistered
  /// names, kBadRequest for invalid configs.
  Status Track(const std::string& name, const LiveConfig& config,
               int threads, std::string* error);

  /// The one mutation path: applies one journal record to the registry
  /// and the live state. Checks the graph shape and the epoch chain,
  /// journals the record when a durability layer is attached (a failed
  /// append rejects it with kShutdown and applies nothing), then mutates.
  /// Local writes, a shard owner's records on its followers and recovery
  /// replay all land here, so every copy of a graph walks one history.
  /// Recovery replays before SetDurability, so it journals nothing twice.
  ///
  ///   kRegister    installs the graph at record.epoch and drops all live
  ///                state of the name (pending buffer, tracked configs)
  ///   kUnregister  evicts the graph and its live state (no-op if absent)
  ///   kEdgeBatch   buffers record.updates at record.epoch
  ///   kSeal        folds the buffer into record.new_epoch, running every
  ///                tracked configuration on `threads` engine threads
  ///                (0 = one thread)
  ///
  /// A batch or seal whose epoch is not the graph's current one, or that
  /// names an unregistered graph, fails with chain_mismatch set.
  ApplyResult Apply(const durability::JournalRecord& record, int threads = 0);

  /// Buffers `updates` against `name`, then seals when the policy says so
  /// (`force_seal` or buffer ≥ max_pending_edges), as a kEdgeBatch and a
  /// kSeal record
  /// through Apply; the seal's epoch is allocated here. `track` configs not
  /// yet tracked are tracked first, on the pre-batch graph (Track() always
  /// re-runs). Updates whose endpoints fall outside the
  /// registered shape are rejected as kBadRequest with the whole batch —
  /// growing the shape requires re-registration.
  ApplyResult ApplyEdges(const std::string& name,
                         std::span<const EdgeUpdate> updates, bool force_seal,
                         int threads = 0,
                         std::span<const LiveConfig> track = {});

  /// The records that rebuild `name`'s current state from nothing: a
  /// kRegister of the sealed edges at the current epoch, then a kEdgeBatch
  /// of the pending buffer when it is non-empty. Empty when unregistered.
  std::vector<durability::JournalRecord> StateRecords(const std::string& name);

  /// Buffered updates for `name` (0 when untracked).
  size_t PendingEdges(const std::string& name) const;

  // -- durability ---------------------------------------------------------

  /// Attaches the durability layer: from then on Apply journals every
  /// record before applying it, and every seal writes a snapshot after
  /// installing when the policy says so.
  void SetDurability(durability::DurabilityManager* durability);

  /// Recovery: installs a snapshot as the graph's live state — registers
  /// the graph at its recorded epoch, re-buffers the persisted pending
  /// updates, restores every config as tracked, and primes the result
  /// cache with the sealed numbers. Each config's numbers must have the
  /// length of its side (or the edge count, for wing); otherwise nothing is
  /// installed and the call fails with kBadRequest. The snapshots'
  /// `bounds`/`old_support` fields are ignored.
  Status RestoreSnapshot(const durability::SnapshotData& data,
                         std::string* error);

  /// Writes an on-demand snapshot of `name` (the admin endpoint), covering
  /// the journal up to now — including acked-but-unsealed pending updates.
  /// kBadRequest without a durability layer, kNotFound for unknown names,
  /// kShutdown when the write fails.
  Status SnapshotNow(const std::string& name, std::string* error);

  struct Stats {
    uint64_t batches_total = 0;     ///< edge batches buffered
    uint64_t updates_total = 0;     ///< individual edge updates buffered
    uint64_t seals_total = 0;       ///< seals executed
    uint64_t runs_incremental = 0;  ///< always 0; perfbench reads it
    uint64_t runs_full = 0;         ///< per-config seal runs
    uint64_t ranges_reused = 0;     ///< always 0; perfbench reads it
    uint64_t ranges_repeeled = 0;   ///< always 0; perfbench reads it
    uint64_t baselines_built = 0;   ///< decompositions run by tracking
    size_t pending_edges = 0;       ///< buffered updates across all graphs
  };
  Stats stats() const;

 private:
  /// One per name ever registered here, never erased (so pointers stay
  /// valid without holding mu_). Every registry change for the name
  /// happens through Apply under `mu`, which keeps `handle` current.
  struct LiveGraphState {
    mutable std::mutex mu;
    std::string name;
    GraphHandle handle;  ///< the current registration; empty once evicted
    std::vector<EdgeUpdate> pending;
    /// Sealed numbers per tracked config (side-local ids for tip, edge ids
    /// for wing); snapshots persist them.
    std::map<LiveConfig, std::vector<Count>> tracked;
    engine::WorkspacePool pool;  ///< seal-time scratch, reused across seals
  };

  /// The state for `name`; created on first use when the name is
  /// registered, or unconditionally for a registration (`registering`).
  LiveGraphState* GetOrCreateState(const std::string& name,
                                   bool registering = false);
  LiveGraphState* FindState(const std::string& name) const;

  /// Apply's body. Caller holds the state mutex. False (with
  /// result->status/error set) when the record was rejected.
  bool ApplyLocked(LiveGraphState& state,
                   const durability::JournalRecord& record, int threads,
                   ApplyResult* result);

  /// Points the state at `handle` and drops its pending buffer and
  /// tracked configs. Caller holds the state mutex.
  void ResetLocked(LiveGraphState& state, GraphHandle handle);

  /// Empties the pending buffer, keeping the fleet-wide pending count in
  /// step. Caller holds the state mutex.
  void ClearPendingLocked(LiveGraphState& state);

  /// Tracks `config` on the state's current graph: Decompose, then the
  /// cache is primed under the current epoch. Caller holds the state mutex.
  Status TrackLocked(LiveGraphState& state, const LiveConfig& config,
                     int threads, std::string* error);

  /// Folds the pending buffer into a new graph installed at `new_epoch`,
  /// decomposing it once per tracked configuration, then snapshots when
  /// durable. Caller holds the state mutex.
  void SealLocked(LiveGraphState& state, uint64_t new_epoch, int threads,
                  ApplyResult* result);

  /// Builds a SnapshotData from the state and hands it to the durability
  /// layer. Caller holds the state mutex (which also guarantees no append
  /// for this graph races the covered-LSN capture).
  bool WriteSnapshotLocked(LiveGraphState& state, std::string* error);

  /// One RECEIPT (tip) or RECEIPT-W (wing) run of `config` on `graph`,
  /// storing the numbers as the config's sealed numbers. Returns the
  /// payload to prime the cache with. Caller holds the state mutex.
  std::shared_ptr<Payload> Decompose(LiveGraphState& state,
                                     const LiveConfig& config,
                                     const BipartiteGraph& graph,
                                     int threads);

  GraphRegistry* registry_;
  ResultCache* cache_;
  const LiveOptions options_;
  durability::DurabilityManager* durability_ = nullptr;

  obs::Counter* const batches_total_;
  obs::Counter* const updates_total_;
  obs::Counter* const seal_runs_;  ///< Stats::runs_full
  obs::Counter* const baselines_built_;
  obs::Gauge* const pending_edges_;
  /// Observed once per seal, so its count is Stats::seals_total.
  obs::Histogram* const seal_seconds_;

  mutable std::mutex mu_;  ///< guards states_
  std::map<std::string, std::unique_ptr<LiveGraphState>> states_;
};

}  // namespace receipt::service

#endif  // RECEIPT_SERVICE_LIVE_GRAPH_H_

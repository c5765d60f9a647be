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
#include "engine/peel_engine.h"
#include "engine/workspace.h"
#include "graph/bipartite_graph.h"
#include "obs/observability.h"
#include "service/graph_registry.h"
#include "service/result_cache.h"
#include "service/service_types.h"

namespace receipt::service {

/// One edge mutation against a live graph, in side-local coordinates.
/// Inserting an existing edge or deleting an absent one is a no-op; within
/// a batch the last operation on a (u, v) pair wins.
struct EdgeUpdate {
  bool insert = true;
  VertexId u = 0;
  VertexId v = 0;
};

/// Seal policy and engine knobs for the live-update path.
struct LiveOptions {
  /// Seal (fold the pending batch into a new epoch) once this many updates
  /// are buffered.
  size_t max_pending_edges = 4096;

  /// Seal once the oldest pending update is this old. Checked lazily on
  /// the next ApplyEdges call — the manager has no timer thread. 0
  /// disables age-based sealing.
  uint64_t max_staleness_ms = 0;

  /// Forwarded to IncrementalSeed::dirty_fraction_limit: past this
  /// fraction of re-peeled sealed ranges a seal stops attempting reuse and
  /// finishes as a plain full recompute (bit-identical either way).
  double dirty_fraction_limit = 0.5;

  /// OpenMP threads for seal-time engine runs when the caller passes none.
  int seal_threads = 1;
};

/// A decomposition configuration kept incrementally up to date across
/// seals. kTipU/kTipV pair with RECEIPT, kWing with RECEIPT-W.
struct LiveConfig {
  RequestKind kind = RequestKind::kTipU;
  uint32_t partitions = 150;
  friend bool operator==(const LiveConfig&, const LiveConfig&) = default;
  friend auto operator<=>(const LiveConfig&, const LiveConfig&) = default;
};

/// What one seal did for one tracked configuration.
struct SealConfigReport {
  LiveConfig config;
  /// False when the baseline was unusable or the dirty-fraction limit
  /// tripped (the run completed as a full recompute).
  bool incremental = false;
  uint64_t ranges_reused = 0;
  uint64_t ranges_repeeled = 0;
  /// Subsets whose fine phase re-ran (== ranges_repeeled when incremental).
  uint64_t subsets_repeeled = 0;
  uint64_t subsets_total = 0;
};

/// Result of one ApplyEdges call.
struct ApplyResult {
  Status status = Status::kOk;
  std::string error;          ///< set when status != kOk
  size_t accepted = 0;        ///< updates buffered by this call
  size_t pending = 0;         ///< buffered updates after this call
  bool sealed = false;        ///< this call folded the buffer into an epoch
  uint64_t epoch = 0;         ///< current registry epoch (new when sealed)
  double seal_seconds = 0.0;  ///< wall time of the seal, 0 when not sealed
  std::vector<SealConfigReport> reports;  ///< one per tracked config
};

/// The live-update half of the serving layer: resident per-graph state
/// (current edge list, pending update buffer, per-configuration sealed
/// baselines) that turns edge-update batches into *incremental* coarse
/// passes — only ranges whose membership could have changed are re-peeled,
/// and only their subsets re-run the fine phase; everything else is reused
/// verbatim from the sealed baseline. Results are bit-identical to a
/// from-scratch decomposition of the post-batch graph by construction (the
/// engine re-peels any range it cannot *prove* clean), which the
/// incremental churn suite asserts.
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
  LiveGraphManager(GraphRegistry& registry, ResultCache& cache,
                   const LiveOptions& options, obs::Observability& obs);
  LiveGraphManager(const LiveGraphManager&) = delete;
  LiveGraphManager& operator=(const LiveGraphManager&) = delete;

  /// Starts (or refreshes) live tracking of `name` for `config`: runs one
  /// full decomposition with patch-log recording and stores it as the
  /// sealed baseline the next seal folds against. Synchronous. Returns
  /// kNotFound for unregistered names, kBadRequest for invalid configs.
  Status Track(const std::string& name, const LiveConfig& config,
               int threads, std::string* error);

  /// Buffers `updates` against `name`, then seals when the policy says so
  /// (`force_seal`, buffer ≥ max_pending_edges, or the oldest pending
  /// update exceeded max_staleness_ms). `track` configs are tracked first
  /// (baselines built on the pre-batch graph only when no valid baseline
  /// exists on the current epoch, so the seal itself already runs
  /// incrementally; Track() always rebuilds). Updates whose endpoints fall
  /// outside the registered shape are rejected as kBadRequest with the
  /// whole batch — growing the shape requires re-registration.
  ApplyResult ApplyEdges(const std::string& name,
                         std::span<const EdgeUpdate> updates, bool force_seal,
                         int threads = 0,
                         std::span<const LiveConfig> track = {});

  /// Replication: applies a batch the shard owner already accepted,
  /// journaled under the owner's epochs. Unlike ApplyEdges this never
  /// policy-seals — the owner dictates every seal point — and unlike the
  /// recovery Replay* paths it *does* journal (batch at `expected_epoch`,
  /// seal as `expected_epoch` -> `sealed_epoch`) and snapshots on seal, so
  /// a follower rejoins from its own data dir at the owner's epochs.
  /// Returns kBadRequest with the current epoch in `epoch` when
  /// `expected_epoch` does not match the local chain (the caller answers
  /// 409 and the owner falls back to a full-state sync).
  ApplyResult ApplyReplicated(const std::string& name,
                              std::span<const EdgeUpdate> updates, bool seal,
                              uint64_t expected_epoch, uint64_t sealed_epoch,
                              int threads = 0);

  /// A copy of one graph's replicated essentials: the sealed edge list at
  /// `epoch` plus the acked-but-unsealed pending buffer. What the owner
  /// ships to a follower whose epoch chain diverged (full-state sync).
  struct ExportedState {
    uint64_t epoch = 0;
    uint32_t num_u = 0;
    uint32_t num_v = 0;
    std::vector<BipartiteGraph::Edge> edges;
    std::vector<EdgeUpdate> pending;
  };

  /// Copies the current state of `name` (false when unregistered).
  bool ExportState(const std::string& name, ExportedState* out);

  /// Buffered updates for `name` (0 when untracked).
  size_t PendingEdges(const std::string& name) const;

  // -- durability ---------------------------------------------------------

  /// Attaches the durability layer. Once set, every accepted batch is
  /// journaled *before* it is buffered (a failed append rejects the batch
  /// with kShutdown — never acknowledged, never buffered), every seal
  /// journals its old→new epoch transition before installing it, and —
  /// when the policy says so — writes a snapshot after installing.
  void SetDurability(durability::DurabilityManager* durability);

  /// Recovery: installs a snapshot as the graph's live state — registers
  /// the graph at its recorded epoch, re-buffers the persisted pending
  /// updates, restores per-config baselines (marked non-incremental: the
  /// next seal recomputes fully, bit-identical either way), and primes the
  /// result cache with the sealed numbers.
  Status RestoreSnapshot(const durability::SnapshotData& data,
                         std::string* error);

  /// Recovery: re-buffers a journaled batch without journaling it again
  /// and without triggering policy seals. Fails when the batch's recorded
  /// epoch does not match the graph's current epoch (broken chain).
  Status ReplayBatch(const std::string& name, uint64_t epoch,
                     std::span<const durability::EdgeOp> updates,
                     std::string* error);

  /// Recovery: re-runs a journaled seal, pinning the exact epoch the
  /// pre-crash process installed. Fails when `old_epoch` does not match
  /// the graph's current epoch (the journaled chain must be contiguous).
  Status ReplaySeal(const std::string& name, uint64_t old_epoch,
                    uint64_t new_epoch, int threads, std::string* error);

  /// Recovery: discards resident live state for `name` (a journaled
  /// re-registration supersedes everything buffered before it). Not safe
  /// against concurrent ApplyEdges — recovery runs single-threaded before
  /// the server accepts traffic.
  bool DropState(const std::string& name);

  /// Writes an on-demand snapshot of `name` (the admin endpoint), covering
  /// the journal up to now — including acked-but-unsealed pending updates.
  /// kBadRequest without a durability layer, kNotFound for unknown names,
  /// kShutdown when the write fails.
  Status SnapshotNow(const std::string& name, std::string* error);

  struct Stats {
    uint64_t batches_total = 0;   ///< ApplyEdges calls accepted
    uint64_t updates_total = 0;   ///< individual edge updates buffered
    uint64_t seals_total = 0;     ///< seals executed
    uint64_t runs_incremental = 0;  ///< per-config seal runs with reuse
    uint64_t runs_full = 0;         ///< per-config seal runs, full fallback
    uint64_t ranges_reused = 0;
    uint64_t ranges_repeeled = 0;
    uint64_t baselines_built = 0;  ///< baseline decompositions (tracking)
    size_t pending_edges = 0;     ///< buffered updates across all graphs
  };
  Stats stats() const;

 private:
  /// Per-configuration sealed baseline: everything the next seal needs to
  /// fold a batch incrementally. Id is VertexId for tip, EdgeOffset for
  /// wing.
  template <typename Id>
  struct Baseline {
    engine::RangeResult<Id> sealed;
    engine::CoarsePatchLog log;
    /// Supports counted at the sealed run's start (the seed's old_support).
    std::vector<Count> old_support;
    /// The sealed decomposition numbers (side-local / edge ids).
    std::vector<Count> numbers;
    bool valid = false;
  };

  struct LiveGraphState {
    mutable std::mutex mu;
    std::string name;
    GraphHandle handle;  ///< pins the currently sealed registration
    /// The current graph's edge list, sorted (u asc, then v) — for wing
    /// this order *is* the edge-id order, which the seal-time remap
    /// exploits.
    std::vector<BipartiteGraph::Edge> edges;
    std::vector<EdgeUpdate> pending;
    uint64_t first_pending_ns = 0;
    std::map<LiveConfig, Baseline<VertexId>> tip;
    std::map<LiveConfig, Baseline<EdgeOffset>> wing;
    engine::WorkspacePool pool;  ///< seal-time scratch, reused across seals
  };

  LiveGraphState* GetOrCreateState(const std::string& name);
  LiveGraphState* FindState(const std::string& name) const;

  /// Builds (or rebuilds) the baseline for one config on the state's
  /// current graph. Caller holds the state mutex.
  Status TrackLocked(LiveGraphState& state, const LiveConfig& config,
                     int threads, std::string* error);

  /// True when `config` has a valid baseline on the graph's current
  /// registration (no re-registration since). Caller holds the state mutex.
  bool HasCurrentBaselineLocked(const LiveGraphState& state,
                                const LiveConfig& config) const;

  /// Folds the pending buffer into a new graph + epoch, running every
  /// tracked configuration incrementally. Caller holds the state mutex.
  /// `pinned_epoch` != 0 installs exactly that epoch instead of allocating
  /// one: recovery replay (`journal_pinned` false) additionally skips
  /// journaling and snapshot-on-seal — the journal already has the record —
  /// while a replicated seal (`journal_pinned` true) journals the pinned
  /// transition and snapshots like a local seal, because for a follower
  /// this *is* the first time the transition happens.
  void SealLocked(LiveGraphState& state, int threads, ApplyResult* result,
                  uint64_t pinned_epoch = 0, bool journal_pinned = false);

  /// Builds a SnapshotData from the state and hands it to the durability
  /// layer. Caller holds the state mutex (which also guarantees no append
  /// for this graph races the covered-LSN capture).
  bool WriteSnapshotLocked(LiveGraphState& state, std::string* error);

  /// One tip configuration's seal run (old baseline -> new baseline on
  /// `new_graph`). `changed` lists the edges whose presence actually
  /// changed. Returns the payload to prime the cache with.
  std::shared_ptr<Payload> SealTip(LiveGraphState& state,
                                   const LiveConfig& config,
                                   Baseline<VertexId>& baseline,
                                   const BipartiteGraph& old_graph,
                                   const BipartiteGraph& new_graph,
                                   std::span<const BipartiteGraph::Edge> changed,
                                   int threads, SealConfigReport* report);

  /// One wing configuration's seal run. `old_to_new` maps sealed edge ids
  /// to new-graph edge ids (kInvalidEdge for deleted edges).
  std::shared_ptr<Payload> SealWing(
      LiveGraphState& state, const LiveConfig& config,
      Baseline<EdgeOffset>& baseline, const BipartiteGraph& old_graph,
      const BipartiteGraph& new_graph,
      std::span<const BipartiteGraph::Edge> changed,
      std::span<const EdgeOffset> old_to_new, int threads,
      SealConfigReport* report);

  void RegisterInstruments();

  GraphRegistry* registry_;
  ResultCache* cache_;
  const LiveOptions options_;
  obs::Observability* obs_;
  durability::DurabilityManager* durability_ = nullptr;

  obs::Counter* seals_incremental_ = nullptr;
  obs::Counter* seals_full_ = nullptr;
  obs::Counter* ranges_reused_total_ = nullptr;
  obs::Counter* ranges_repeeled_total_ = nullptr;
  obs::Counter* updates_total_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
  obs::Gauge* dirty_permille_ = nullptr;
  obs::Histogram* seal_seconds_ = nullptr;

  mutable std::mutex mu_;  ///< guards states_ and stats_
  std::map<std::string, std::unique_ptr<LiveGraphState>> states_;
  Stats stats_;
};

}  // namespace receipt::service

#endif  // RECEIPT_SERVICE_LIVE_GRAPH_H_

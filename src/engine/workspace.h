#ifndef RECEIPT_ENGINE_WORKSPACE_H_
#define RECEIPT_ENGINE_WORKSPACE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/extraction.h"
#include "engine/frontier_epochs.h"
#include "engine/min_heap.h"
#include "engine/support_index.h"
#include "graph/induced_subgraph.h"
#include "util/relaxed_counter.h"
#include "util/types.h"
#include "wing/edge_topology.h"

namespace receipt::engine {

/// Per-thread reusable scratch for every wedge-traversal kernel in the
/// library: butterfly counting (Alg. 1), tip peel-updates (Alg. 2), RECEIPT
/// CD rounds (Alg. 3), per-partition FD peeling (Alg. 4) and wing (edge)
/// peeling (§7). A decomposition allocates workspaces once through
/// WorkspacePool and reuses them across rounds and partitions, so the hot
/// paths are allocation-free in steady state.
///
/// Invariant between kernel invocations: `wedge_count` and `edge_mark` are
/// all-zero — every kernel resets exactly the entries it touched.
///
/// Cache-line aligned: workspaces sit side by side in the pool's vector,
/// and kernels bump `wedges_traversed` (at the end of the struct) once per
/// wedge while the neighbouring thread reads its own `wedge_count` header
/// (the first field) just as often. Unaligned, whether the two share a
/// line depends on where the heap places the vector — a false-sharing
/// lottery that moved butterfly-counting time by ~40% between otherwise
/// identical builds on a 4-vCPU VM.
struct alignas(64) PeelWorkspace {
  /// Dense wedge-aggregation array (`wdg_arr` of Alg. 2), indexed by 2-hop
  /// neighbor id. 64-bit: multiplicities are bounded by degree, but a dense
  /// high-degree vertex can collect > 2^32 wedges across one traversal.
  std::vector<uint64_t> wedge_count;
  /// Non-zero entries of wedge_count (nze of Alg. 1).
  std::vector<VertexId> touched;
  /// Wedge list (mid, end) for the counting kernel's opposite-side pass
  /// (nzw of Alg. 1).
  std::vector<std::pair<VertexId, VertexId>> wedge_pairs;
  /// Mark array for edge (wing) peeling, indexed by global vertex id so one
  /// array serves whichever side the kernel marks: stores edge id + 1 while
  /// a peel is in flight, 0 = unmarked (wing edge ids are < 2^32 − 1).
  std::vector<uint32_t> edge_mark;
  /// Frontier buffer: entity ids this thread's peel kernels pushed into the
  /// next round's candidate set (deduplicated via the shared FrontierEpochs
  /// bitmap). EdgeOffset-wide so it serves both vertex and edge peeling.
  std::vector<uint64_t> frontier;
  /// Support-delta buffer: entity ids whose support this thread's kernels
  /// changed, deduplicated per range by the pool SupportIndex's own epoch
  /// bitmap and folded into the index's changed list after each round
  /// barrier (the ⊲⊳init patch + histogram maintenance feed).
  std::vector<uint64_t> support_delta;
  /// (entity, new support) pairs produced in one round, consumed after the
  /// barrier (ParB re-bucketing).
  std::vector<std::pair<uint64_t, Count>> updates;
  /// Re-count target buffer for HUC (§4.1): fresh per-vertex counts.
  std::vector<Count> count_buffer;
  /// Fixed external butterfly contributions during FD (⊲⊳init − in-subgraph
  /// count, §4.1).
  std::vector<Count> external;
  /// Static per-entity wedge counts — the C_peel cost model input.
  std::vector<Count> static_cost;
  /// Per-partition support vector (FD induced subgraphs, wing environment
  /// graphs); assign() keeps the capacity between partitions.
  std::vector<Count> support_buffer;

  /// Workspace-resident min extraction for sequential peel loops: Reset()
  /// re-seeds it per FD task while reusing the heap/bucket backing stores.
  MinExtractor extractor;
  /// Workspace-resident lazy heap for sequential wing (edge) peeling.
  LazyMinHeap<4> edge_heap;
  /// Arena for per-partition induced subgraphs and their DynamicGraph view
  /// (RECEIPT FD).
  InducedSubgraphArena subgraph_arena;
  /// Per-partition edge life-cycle states (wing fine step).
  std::vector<uint8_t> state_buffer;
  /// Per-partition membership flags (wing fine step: in-subset edges).
  std::vector<uint8_t> flag_buffer;
  /// Per-partition entity id scratch (wing fine step: environment ids).
  std::vector<EdgeOffset> id_buffer;
  /// Live runs of the environment edges (wing fine step), rebuilt in place
  /// via BuildEnvironmentInto.
  EdgeTopology env_runs;

  /// Wedges traversed by kernels running on this workspace; folded by
  /// WorkspacePool::TotalWedges.
  uint64_t wedges_traversed = 0;

  /// Number of times a dense buffer actually grew. Stable once warm — the
  /// workspace-reuse tests assert no growth across rounds and partitions.
  /// Relaxed-atomic so a live /statz or /metrics scrape can read it while
  /// a request executes.
  util::RelaxedCounter growths;

  /// Grows wedge_count to cover ids [0, n), zero-filling new slots. Never
  /// shrinks, so alternating between a graph and its induced subgraphs
  /// costs nothing.
  void EnsureVertexCapacity(VertexId n) {
    if (wedge_count.size() < static_cast<size_t>(n)) {
      wedge_count.resize(n, 0);
      ++growths;
    }
  }

  /// Grows edge_mark to cover global vertex ids [0, n), zero-filled.
  void EnsureMarkCapacity(VertexId n) {
    if (edge_mark.size() < static_cast<size_t>(n)) {
      edge_mark.resize(n, 0);
      ++growths;
    }
  }
};

// FrontierEpochs (the shared per-round claim bitmap) lives in
// engine/frontier_epochs.h so the SupportIndex can own an instance of its
// own without an include cycle through this header.

/// The per-decomposition set of workspaces, one per thread.
/// Prepare() is idempotent: repeated calls with the same (or smaller) shape
/// do not allocate, which is what lets RECEIPT share one pool between
/// counting, CD rounds and every FD partition.
class WorkspacePool {
 public:
  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Ensures at least `num_threads` workspaces, each covering vertex ids
  /// [0, vertex_capacity) in wedge_count and, when mark_capacity > 0,
  /// global vertex ids [0, mark_capacity) in edge_mark.
  void Prepare(int num_threads, VertexId vertex_capacity,
               VertexId mark_capacity = 0);

  int num_workspaces() const { return static_cast<int>(workspaces_.size()); }
  PeelWorkspace& Get(int tid) { return workspaces_[static_cast<size_t>(tid)]; }
  /// The first max(1, num_threads) workspaces, one per thread of a
  /// ParallelForWithContext team (created if missing).
  std::span<PeelWorkspace> Team(int num_threads) {
    const size_t size = static_cast<size_t>(std::max(1, num_threads));
    if (workspaces_.size() < size) workspaces_.resize(size);
    return {workspaces_.data(), size};
  }

  /// The pool-wide frontier claim bitmap (one decomposition runs per pool
  /// at a time, so a single shared instance suffices and its stamp array is
  /// reused across requests).
  FrontierEpochs& frontier_epochs() { return frontier_epochs_; }

  /// The pool-wide support histogram of the coarse decomposer (same
  /// single-decomposition-per-pool contract as the frontier bitmap); its
  /// buckets, member links and delta stamps are reused across requests, so
  /// index-driven coarse steps allocate nothing once warm.
  SupportIndex& support_index() { return support_index_; }

  /// Sum of per-workspace wedge counters (monotonic; callers take deltas).
  uint64_t TotalWedges() const;
  /// Sum of per-workspace buffer-growth events (allocation telemetry),
  /// including the workspace-resident extractors, subgraph arenas and the
  /// shared frontier bitmap.
  uint64_t TotalGrowths() const;

 private:
  std::vector<PeelWorkspace> workspaces_;
  FrontierEpochs frontier_epochs_;
  SupportIndex support_index_;
};

/// Pool resolution shared by every decomposition driver: run on the
/// caller-owned pool when one is supplied (service workers reusing scratch
/// across requests), otherwise on the driver's own local pool.
inline WorkspacePool& ResolvePool(WorkspacePool* caller_owned,
                                  WorkspacePool& local) {
  return caller_owned != nullptr ? *caller_owned : local;
}

}  // namespace receipt::engine

#endif  // RECEIPT_ENGINE_WORKSPACE_H_

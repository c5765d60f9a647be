#ifndef RECEIPT_SERVICE_GRAPH_REGISTRY_H_
#define RECEIPT_SERVICE_GRAPH_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/types.h"

namespace receipt::service {

/// A graph resident in the registry. Immutable once registered; replacing a
/// name installs a fresh entry with a higher epoch.
struct RegisteredGraph {
  std::string name;
  uint64_t epoch = 0;  ///< unique per registration, never reused
  BipartiteGraph graph;
};

/// Ref-counted view of a registered graph. Holding a handle keeps the graph
/// alive through eviction or replacement: decompositions run to completion
/// on the snapshot they acquired, while the registry is free to retire the
/// name concurrently. Default-constructed handles are empty (operator bool).
class GraphHandle {
 public:
  GraphHandle() = default;
  explicit GraphHandle(std::shared_ptr<const RegisteredGraph> entry)
      : entry_(std::move(entry)) {}

  explicit operator bool() const { return entry_ != nullptr; }
  const BipartiteGraph& graph() const { return entry_->graph; }
  const std::string& name() const { return entry_->name; }
  uint64_t epoch() const { return entry_->epoch; }

 private:
  std::shared_ptr<const RegisteredGraph> entry_;
};

/// Thread-safe name → graph map with epoching. The service layer resolves
/// request graph names here at submit time; epochs make cached results from
/// retired registrations unreachable without any cache invalidation
/// traffic (the (epoch, params) key simply never matches again).
class GraphRegistry {
 public:
  GraphRegistry() = default;
  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// Installs (or replaces) `name`. Returns the new entry's epoch. Handles
  /// acquired on a previous epoch stay valid.
  uint64_t Register(const std::string& name, BipartiteGraph graph);

  /// Reserves and returns the next epoch without registering anything —
  /// the durability layer journals a seal's target epoch *before* the
  /// registration installs it.
  uint64_t AllocateEpoch();

  /// Installs `name` at an exact epoch: recovery replays pre-crash
  /// registrations and seals with the epochs they were journaled under, so
  /// a recovered chain is numbered identically to the never-crashed one.
  /// The epoch counter advances past `epoch` so later registrations never
  /// collide.
  void RegisterAtEpoch(const std::string& name, BipartiteGraph graph,
                       uint64_t epoch);

  /// Loads a file through graph_io — `.bin` snapshots via LoadBinary,
  /// anything else as KONECT text — and registers it under `name`. On
  /// failure returns false, leaves the registry untouched, and sets *error
  /// (when provided) to the loader's diagnostic prefixed with the path.
  bool LoadFile(const std::string& name, const std::string& path,
                std::string* error = nullptr);

  /// Retires `name`. In-flight handles keep the graph alive; new Acquire
  /// calls fail. Returns false if the name was not registered.
  bool Evict(const std::string& name);

  /// Returns a handle to the current registration of `name`, or an empty
  /// handle if the name is unknown.
  GraphHandle Acquire(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;
  size_t size() const;

  /// Largest combined vertex count of any resident graph — the workspace
  /// shape every kernel needs. The service pre-sizes worker scratch to
  /// this so steady-state execution is allocation-free regardless of which
  /// graph a request targets.
  VertexId MaxVertices() const;

 private:
  mutable std::mutex mu_;
  uint64_t next_epoch_ = 1;
  std::map<std::string, std::shared_ptr<const RegisteredGraph>> graphs_;
};

}  // namespace receipt::service

#endif  // RECEIPT_SERVICE_GRAPH_REGISTRY_H_

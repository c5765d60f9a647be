#include "service/graph_registry.h"

#include <algorithm>

#include "graph/graph_io.h"

namespace receipt::service {

uint64_t GraphRegistry::Register(const std::string& name,
                                 BipartiteGraph graph) {
  auto entry = std::make_shared<RegisteredGraph>();
  entry->name = name;
  entry->graph = std::move(graph);
  std::lock_guard<std::mutex> lock(mu_);
  entry->epoch = next_epoch_++;
  const uint64_t epoch = entry->epoch;
  graphs_[name] = std::move(entry);
  return epoch;
}

uint64_t GraphRegistry::AllocateEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_epoch_++;
}

void GraphRegistry::RegisterAtEpoch(const std::string& name,
                                    BipartiteGraph graph, uint64_t epoch) {
  auto entry = std::make_shared<RegisteredGraph>();
  entry->name = name;
  entry->epoch = epoch;
  entry->graph = std::move(graph);
  std::lock_guard<std::mutex> lock(mu_);
  next_epoch_ = std::max(next_epoch_, epoch + 1);
  graphs_[name] = std::move(entry);
}

bool GraphRegistry::LoadFile(const std::string& name, const std::string& path,
                             std::string* error) {
  std::string load_error;
  auto loaded = LoadGraphFile(path, &load_error);
  if (!loaded.has_value()) {
    if (error != nullptr) *error = path + ": " + load_error;
    return false;
  }
  Register(name, std::move(*loaded));
  return true;
}

bool GraphRegistry::Evict(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.erase(name) > 0;
}

GraphHandle GraphRegistry::Acquire(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(name);
  if (it == graphs_.end()) return GraphHandle();
  return GraphHandle(it->second);
}

std::vector<std::string> GraphRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) names.push_back(name);
  return names;
}

size_t GraphRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.size();
}

VertexId GraphRegistry::MaxVertices() const {
  std::lock_guard<std::mutex> lock(mu_);
  VertexId max_vertices = 0;
  for (const auto& [name, entry] : graphs_) {
    max_vertices = std::max(max_vertices, entry->graph.num_vertices());
  }
  return max_vertices;
}

}  // namespace receipt::service

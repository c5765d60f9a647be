#ifndef RECEIPT_SERVICE_RESULT_CACHE_H_
#define RECEIPT_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "service/service_types.h"

namespace receipt::service {

/// Cache key: the semantic parameters that determine a decomposition's
/// output. The graph is identified by its *name and registry epoch*:
/// epochs alone are ambiguous once replication pins foreign epochs from
/// different shard owners into one process, so the name disambiguates.
/// Evicting or replacing a graph silently orphans its entries — they age
/// out through LRU without any invalidation protocol. The thread count is
/// deliberately absent: tip/wing numbers are thread-count-invariant
/// (Theorem 2; the determinism tests assert it), so a result computed at
/// any parallelism serves every equivalent request.
struct CacheKey {
  std::string graph;
  uint64_t epoch = 0;
  RequestKind kind = RequestKind::kTipU;
  Algorithm algorithm = Algorithm::kReceipt;
  uint32_t partitions = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a 64 over the name
    for (const char c : key.graph) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h = h * 0x9e3779b97f4a7c15ULL + key.epoch;
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(key.kind);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(key.algorithm);
    h = h * 0x9e3779b97f4a7c15ULL + key.partitions;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// Thread-safe LRU cache of decomposition payloads under a byte budget.
/// Values are shared_ptr<const Payload>: eviction during concurrent use is
/// safe (readers keep their reference; the bytes are reclaimed when the
/// last one drops). A zero budget disables caching entirely — Get always
/// misses and Put is a no-op — which the tests use to force engine runs.
/// Hits, misses, insertions, evictions and epoch drops are counted once,
/// in `metrics` (receipt_cache_*_total); stats() reads them back.
class ResultCache {
 public:
  ResultCache(size_t byte_budget, obs::MetricsRegistry& metrics);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached payload and promotes it to most-recent, or nullptr.
  std::shared_ptr<const Payload> Get(const CacheKey& key);

  /// Inserts (or refreshes) `key`, then evicts least-recently-used entries
  /// until the budget holds. A payload larger than the whole budget is
  /// evicted immediately — the cache never pins more than `byte_budget`.
  void Put(const CacheKey& key, std::shared_ptr<const Payload> payload);

  /// Drops every entry whose key carries `epoch` and returns how many were
  /// removed. Called when a registry epoch dies (graph re-registered or a
  /// live-update batch sealed): dead-epoch payloads can never be requested
  /// again — their keys are unreachable — so proactive removal frees budget
  /// for live results instead of waiting for LRU aging.
  size_t DropEpoch(uint64_t epoch);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t epoch_drops = 0;
    size_t bytes = 0;
    size_t entries = 0;
  };
  Stats stats() const;

 private:
  using LruList =
      std::list<std::pair<CacheKey, std::shared_ptr<const Payload>>>;

  void EvictOverBudgetLocked();

  const size_t budget_;
  obs::Counter* const hits_;
  obs::Counter* const misses_;
  obs::Counter* const insertions_;
  obs::Counter* const evictions_;
  obs::Counter* const epoch_drops_;

  mutable std::mutex mu_;
  size_t bytes_ = 0;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
};

}  // namespace receipt::service

#endif  // RECEIPT_SERVICE_RESULT_CACHE_H_

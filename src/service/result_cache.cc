#include "service/result_cache.h"

namespace receipt::service {

ResultCache::ResultCache(size_t byte_budget, obs::MetricsRegistry& metrics)
    : budget_(byte_budget),
      hits_(metrics.GetCounter("receipt_cache_hits_total",
                               "Responses served from the ResultCache.")),
      misses_(metrics.GetCounter("receipt_cache_misses_total",
                                 "ResultCache lookups that found nothing.")),
      insertions_(
          metrics.GetCounter("receipt_cache_insertions_total",
                             "Payloads inserted into the ResultCache.")),
      evictions_(metrics.GetCounter(
          "receipt_cache_evictions_total",
          "ResultCache entries evicted to hold the byte budget.")),
      epoch_drops_(metrics.GetCounter(
          "receipt_cache_epoch_drops_total",
          "ResultCache entries dropped because their epoch died.")) {}

std::shared_ptr<const Payload> ResultCache::Get(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_->Increment();
  return it->second->second;
}

void ResultCache::Put(const CacheKey& key,
                      std::shared_ptr<const Payload> payload) {
  if (budget_ == 0 || payload == nullptr) return;
  // A payload that could never fit would evict every resident entry before
  // being evicted itself; refuse it instead of flushing the cache.
  if (payload->ApproxBytes() > budget_) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->second->ApproxBytes();
    bytes_ += payload->ApproxBytes();
    it->second->second = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += payload->ApproxBytes();
    lru_.emplace_front(key, std::move(payload));
    index_[key] = lru_.begin();
    insertions_->Increment();
  }
  EvictOverBudgetLocked();
}

size_t ResultCache::DropEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.epoch != epoch) {
      ++it;
      continue;
    }
    bytes_ -= it->second->ApproxBytes();
    index_.erase(it->first);
    it = lru_.erase(it);
    ++dropped;
  }
  epoch_drops_->Increment(dropped);
  return dropped;
}

void ResultCache::EvictOverBudgetLocked() {
  while (bytes_ > budget_ && !lru_.empty()) {
    const auto& [key, payload] = lru_.back();
    bytes_ -= payload->ApproxBytes();
    index_.erase(key);
    lru_.pop_back();
    evictions_->Increment();
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats stats;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.insertions = insertions_->Value();
  stats.evictions = evictions_->Value();
  stats.epoch_drops = epoch_drops_->Value();
  std::lock_guard<std::mutex> lock(mu_);
  stats.bytes = bytes_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace receipt::service

#include "serve/front_cache.hpp"

namespace eus::serve {

FrontCache::FrontCache(std::size_t capacity, MetricsRegistry* metrics)
    : capacity_(capacity < 1 ? 1 : capacity) {
  if (metrics != nullptr) {
    metric_hits_ = &metrics->counter("serve.cache.hits");
    metric_misses_ = &metrics->counter("serve.cache.misses");
    metric_evictions_ = &metrics->counter("serve.cache.evictions");
  }
}

std::optional<CachedResult> FrontCache::lookup(const std::string& key) {
  return find(key, true);
}

std::optional<CachedResult> FrontCache::probe(const std::string& key) {
  return find(key, false);
}

std::optional<CachedResult> FrontCache::find(const std::string& key,
                                             bool count_miss) {
  const std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    if (count_miss) {
      ++misses_;
      if (metric_misses_ != nullptr) metric_misses_->add();
    }
    return std::nullopt;
  }
  ++hits_;
  if (metric_hits_ != nullptr) metric_hits_->add();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->result;
}

void FrontCache::insert(const std::string& key, CachedResult result) {
  const std::lock_guard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    if (metric_evictions_ != nullptr) metric_evictions_->add();
  }
  lru_.push_front(Entry{key, std::move(result)});
  index_[key] = lru_.begin();
}

void FrontCache::set_capacity(std::size_t capacity) {
  const std::lock_guard lock(mutex_);
  capacity_ = capacity < 1 ? 1 : capacity;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    if (metric_evictions_ != nullptr) metric_evictions_->add();
  }
}

std::size_t FrontCache::size() const {
  const std::lock_guard lock(mutex_);
  return lru_.size();
}

std::size_t FrontCache::capacity() const {
  const std::lock_guard lock(mutex_);
  return capacity_;
}

}  // namespace eus::serve

#include "src/tablet/read_buffer.h"

#include "src/obs/metrics.h"
#include "src/sim/costs.h"

namespace logbase::tablet {

namespace {

class LruPolicy : public ReplacementPolicy {
 public:
  void OnInsert(const std::string& key) override {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.erase(it->second);
    }
    order_.push_front(key);
    index_[key] = order_.begin();
  }

  void OnAccess(const std::string& key) override { OnInsert(key); }

  void OnRemove(const std::string& key) override {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.erase(it->second);
      index_.erase(it);
    }
  }

  std::string Victim() override {
    return order_.empty() ? std::string() : order_.back();
  }

 private:
  std::list<std::string> order_;  // front = most recent
  std::unordered_map<std::string, std::list<std::string>::iterator> index_;
};

class FifoPolicy : public ReplacementPolicy {
 public:
  void OnInsert(const std::string& key) override {
    if (index_.count(key) > 0) return;  // insertion order is sticky
    order_.push_front(key);
    index_[key] = order_.begin();
  }

  void OnAccess(const std::string&) override {}

  void OnRemove(const std::string& key) override {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.erase(it->second);
      index_.erase(it);
    }
  }

  std::string Victim() override {
    return order_.empty() ? std::string() : order_.back();
  }

 private:
  std::list<std::string> order_;
  std::unordered_map<std::string, std::list<std::string>::iterator> index_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> MakeLruPolicy() {
  return std::make_unique<LruPolicy>();
}

std::unique_ptr<ReplacementPolicy> MakeFifoPolicy() {
  return std::make_unique<FifoPolicy>();
}

ReadBuffer::ReadBuffer(size_t capacity_bytes,
                       std::unique_ptr<ReplacementPolicy> policy)
    : capacity_(capacity_bytes), policy_(std::move(policy)) {}

bool ReadBuffer::Get(const std::string& key, CachedRecord* record) {
  if (!enabled()) return false;
  sim::ChargeCpu(sim::costs::kCacheProbeUs);
  MutexLock l(mu_);
  static obs::Counter* hit_count =
      obs::MetricsRegistry::Global().counter("tablet.read_buffer.hits");
  static obs::Counter* miss_count =
      obs::MetricsRegistry::Global().counter("tablet.read_buffer.misses");
  auto it = map_.find(key);
  if (it == map_.end()) {
    misses_++;
    miss_count->Add();
    return false;
  }
  hits_++;
  hit_count->Add();
  policy_->OnAccess(key);
  *record = it->second;
  return true;
}

void ReadBuffer::Put(const std::string& key, CachedRecord record) {
  if (!enabled()) return;
  MutexLock l(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (it->second.timestamp > record.timestamp) return;  // keep newer
    usage_ -= key.size() + it->second.value.size();
    it->second = std::move(record);
    usage_ += key.size() + it->second.value.size();
    policy_->OnAccess(key);
  } else {
    usage_ += key.size() + record.value.size();
    map_.emplace(key, std::move(record));
    policy_->OnInsert(key);
  }
  EvictIfNeeded();
}

void ReadBuffer::EvictIfNeeded() {
  while (usage_ > capacity_ && !map_.empty()) {
    std::string victim = policy_->Victim();
    if (victim.empty()) break;
    auto it = map_.find(victim);
    if (it == map_.end()) {
      policy_->OnRemove(victim);
      continue;
    }
    usage_ -= victim.size() + it->second.value.size();
    map_.erase(it);
    policy_->OnRemove(victim);
  }
}

void ReadBuffer::Invalidate(const std::string& key) {
  if (!enabled()) return;
  MutexLock l(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    usage_ -= key.size() + it->second.value.size();
    map_.erase(it);
    policy_->OnRemove(key);
  }
}

void ReadBuffer::Clear() {
  MutexLock l(mu_);
  for (const auto& [key, rec] : map_) {
    policy_->OnRemove(key);
  }
  map_.clear();
  usage_ = 0;
}

uint64_t ReadBuffer::hits() const {
  MutexLock l(mu_);
  return hits_;
}

uint64_t ReadBuffer::misses() const {
  MutexLock l(mu_);
  return misses_;
}

size_t ReadBuffer::usage() const {
  MutexLock l(mu_);
  return usage_;
}

}  // namespace logbase::tablet

#include "src/tablet/read_buffer.h"

#include "src/obs/metrics.h"
#include "src/sim/costs.h"

namespace logbase::tablet {

namespace {

/// The tracked entries, most recently inserted (or, for LRU, used) first.
class RecencyList {
 protected:
  void PushFront(BufferEntry* e) {
    e->prev = nullptr;
    e->next = head_;
    if (head_ != nullptr) head_->prev = e;
    head_ = e;
    if (tail_ == nullptr) tail_ = e;
  }

  void Unlink(BufferEntry* e) {
    (e->prev != nullptr ? e->prev->next : head_) = e->next;
    (e->next != nullptr ? e->next->prev : tail_) = e->prev;
    e->prev = e->next = nullptr;
  }

  BufferEntry* Back() const { return tail_; }

 private:
  BufferEntry* head_ = nullptr;
  BufferEntry* tail_ = nullptr;
};

class LruPolicy : public ReplacementPolicy, private RecencyList {
 public:
  void OnInsert(BufferEntry* e) override { PushFront(e); }
  void OnAccess(BufferEntry* e) override {
    Unlink(e);
    PushFront(e);
  }
  void OnRemove(BufferEntry* e) override { Unlink(e); }
  BufferEntry* Victim() override { return Back(); }
};

class FifoPolicy : public ReplacementPolicy, private RecencyList {
 public:
  void OnInsert(BufferEntry* e) override { PushFront(e); }
  void OnAccess(BufferEntry*) override {}  // insertion order is sticky
  void OnRemove(BufferEntry* e) override { Unlink(e); }
  BufferEntry* Victim() override { return Back(); }
};

size_t Footprint(const std::string& key, const CachedRecord& record) {
  return key.size() + record.value.size();
}

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
  policy_->OnAccess(&it->second);
  *record = it->second.record;
  return true;
}

void ReadBuffer::Put(const std::string& key, CachedRecord record) {
  if (!enabled()) return;
  MutexLock l(mu_);
  auto [it, inserted] = map_.try_emplace(key);
  BufferEntry& entry = it->second;
  if (inserted) {
    entry.key = &it->first;
    entry.record = std::move(record);
    usage_ += Footprint(key, entry.record);
    policy_->OnInsert(&entry);
  } else {
    if (entry.record.timestamp > record.timestamp) return;  // keep newer
    usage_ -= Footprint(key, entry.record);
    entry.record = std::move(record);
    usage_ += Footprint(key, entry.record);
    policy_->OnAccess(&entry);
  }
  EvictIfNeeded();
}

void ReadBuffer::EraseLocked(Map::iterator it) {
  usage_ -= Footprint(it->first, it->second.record);
  policy_->OnRemove(&it->second);
  map_.erase(it);
}

void ReadBuffer::EvictIfNeeded() {
  while (usage_ > capacity_ && !map_.empty()) {
    BufferEntry* victim = policy_->Victim();
    if (victim == nullptr) break;
    EraseLocked(map_.find(*victim->key));
  }
}

void ReadBuffer::Invalidate(const std::string& key) {
  if (!enabled()) return;
  MutexLock l(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) EraseLocked(it);
}

void ReadBuffer::Clear() {
  MutexLock l(mu_);
  for (auto& [key, entry] : map_) policy_->OnRemove(&entry);
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

#include "src/sim/disk_model.h"

#include <algorithm>

namespace logbase::sim {

DiskModel::DiskModel(std::string name, DiskParams params)
    : params_(params), resource_(std::move(name)) {}

VirtualTime DiskModel::TransferUs(uint64_t n) const {
  // 1 MB/s == 1 byte/us, so bytes / MB-per-s gives microseconds.
  double bytes_per_us = params_.bandwidth_mb_per_s;
  return static_cast<VirtualTime>(static_cast<double>(n) / bytes_per_us) + 1;
}

bool DiskModel::MatchStreamLocked(uint64_t locus, uint64_t offset,
                                  uint64_t n) {
  // `locus` arrives pre-tagged with the read/write bit (the low bit) by the
  // callers. An access is sequential when it continues any tracked stream
  // on the file (same locus, expected offset); the matched stream — or a
  // fresh one — then expects `offset + n` next. A matched read entry stays
  // in the table rather than being consumed: a just-read region sits in
  // the page cache, so a second reader arriving at the same offset
  // (co-tailing readers of a shared log) is cheap too, not a 12ms seek.
  // An append never revisits an offset, so a matched write entry is
  // consumed: the stream advances in place instead of adding an entry per
  // append and pushing other files' live streams out of the table. The
  // LRU ages cold entries out.
  auto it = streams_.find(StreamKey{locus, offset});
  bool sequential = it != streams_.end();
  if (sequential && (locus & 1) != 0) {
    stream_lru_.erase(it->second);
    streams_.erase(it);
  } else if (sequential) {
    stream_lru_.splice(stream_lru_.begin(), stream_lru_, it->second);
  }
  StreamKey advanced{locus, offset + n};
  auto existing = streams_.find(advanced);
  if (existing != streams_.end()) {
    // Another stream already expects this offset (a reader caught up to a
    // sibling); just refresh its recency.
    stream_lru_.splice(stream_lru_.begin(), stream_lru_, existing->second);
  } else {
    stream_lru_.push_front(advanced);
    streams_[advanced] = stream_lru_.begin();
    if (stream_lru_.size() > kMaxStreams) {
      streams_.erase(stream_lru_.back());
      stream_lru_.pop_back();
    }
  }
  return sequential;
}

VirtualTime DiskModel::AccessCost(uint64_t locus, uint64_t offset,
                                  uint64_t n, bool is_write) const {
  MutexLock l(mu_);
  uint64_t stream_key = (locus << 1) | (is_write ? 1 : 0);
  bool sequential = streams_.count(StreamKey{stream_key, offset}) > 0;
  VirtualTime positioning =
      sequential ? 0 : params_.seek_us + params_.rotational_us;
  return positioning + TransferUs(n) + stall_us();
}

VirtualTime DiskModel::AccessFrom(VirtualTime start, uint64_t locus,
                                  uint64_t offset, uint64_t n,
                                  bool is_write) {
  VirtualTime cost;
  {
    MutexLock l(mu_);
    uint64_t stream_key = (locus << 1) | (is_write ? 1 : 0);
    bool sequential = MatchStreamLocked(stream_key, offset, n);
    VirtualTime positioning =
        sequential ? 0 : params_.seek_us + params_.rotational_us;
    cost = positioning + TransferUs(n) + stall_us();
  }
  return resource_.Acquire(start, cost);
}

void DiskModel::Access(uint64_t locus, uint64_t offset, uint64_t n,
                       bool is_write) {
  SimContext* ctx = SimContext::Current();
  if (ctx == nullptr) {
    // No actor: still update stream state, charge nothing.
    MutexLock l(mu_);
    MatchStreamLocked((locus << 1) | (is_write ? 1 : 0), offset, n);
    return;
  }
  ctx->AdvanceTo(AccessFrom(ctx->now(), locus, offset, n, is_write));
}

}  // namespace logbase::sim

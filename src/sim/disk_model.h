// A commodity-disk cost model (the paper's testbed: 500 GB SATA disks,
// ~2012). Sequential transfers pay only bandwidth; a positioning change pays
// seek + half-rotation. The model tracks a small set of concurrent
// sequential streams (one per file/extent being read or written), the way OS
// readahead and write-behind make a few interleaved sequential streams on
// one spindle each behave sequentially. Random accesses never match a
// stream and pay the positioning cost — the mechanism behind every headline
// result in the paper (log-only sequential writes vs. in-place random I/O).

#ifndef LOGBASE_SIM_DISK_MODEL_H_
#define LOGBASE_SIM_DISK_MODEL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/sim/resource.h"
#include "src/sim/sim_context.h"

#include "src/util/ordered_mutex.h"

namespace logbase::sim {

struct DiskParams {
  /// Average seek time (7200 rpm commodity disk).
  VirtualTime seek_us = 8000;
  /// Average rotational delay (half a revolution at 7200 rpm).
  VirtualTime rotational_us = 4150;
  /// Sustained sequential bandwidth.
  double bandwidth_mb_per_s = 100.0;
};

/// One physical disk. Thread-safe.
class DiskModel {
 public:
  DiskModel(std::string name, DiskParams params = DiskParams());

  /// Charges an access of `n` bytes at (`locus`, `offset`) — locus is an
  /// opaque file/extent identifier — to the ambient SimContext. An access
  /// that continues one of the tracked sequential streams (same locus,
  /// contiguous offset) pays bandwidth only; anything else pays positioning
  /// and starts a new stream. No-op without an ambient context.
  /// `is_write` separates read and write streams on the same locus (the OS
  /// keeps independent readahead and write-behind contexts, so interleaved
  /// reads never break an append stream's sequentiality in practice).
  void Access(uint64_t locus, uint64_t offset, uint64_t n,
              bool is_write = false);

  /// Like Access but starting at `start` instead of the ambient clock and
  /// returning the completion time without advancing any context — building
  /// block for pipelined multi-resource operations (the DFS write
  /// pipeline).
  VirtualTime AccessFrom(VirtualTime start, uint64_t locus, uint64_t offset,
                         uint64_t n, bool is_write = false);

  /// Max concurrent sequential streams tracked. Linux keeps readahead state
  /// per open file description — not per file — so several readers tailing
  /// the same file at different offsets each stay effectively sequential
  /// (the inter-stream head movement is amortized by the readahead window);
  /// the cap only bounds the model's memory (an append advances its write
  /// stream's entry, so a busy log writer holds one entry, not one per
  /// append). Streams are therefore keyed by
  /// (locus, next expected offset): an access that continues any tracked
  /// stream is sequential, no matter how many other streams share the file.
  static constexpr size_t kMaxStreams = 64;

  /// Cost of the access without charging it (for planners/tests).
  VirtualTime AccessCost(uint64_t locus, uint64_t offset, uint64_t n,
                         bool is_write = false) const;

  Resource* resource() { return &resource_; }
  const DiskParams& params() const { return params_; }

  /// Fault injection: adds `us` of latency to every subsequent access
  /// (a stalling spindle / overloaded controller). 0 clears the stall.
  void set_stall_us(VirtualTime us) {
    stall_us_.store(us, std::memory_order_relaxed);
  }
  VirtualTime stall_us() const {
    return stall_us_.load(std::memory_order_relaxed);
  }

 private:
  VirtualTime TransferUs(uint64_t n) const;
  /// True when (locus, offset) continues a tracked stream; updates the
  /// stream table either way.
  bool MatchStreamLocked(uint64_t locus, uint64_t offset, uint64_t n)
      REQUIRES(mu_);

  const DiskParams params_;
  Resource resource_;  // internally synchronized (its own ranked mu_)
  std::atomic<VirtualTime> stall_us_{0};
  mutable OrderedMutex mu_{lockrank::kSimDisk, "sim.disk"};
  // One entry per live sequential stream: (locus, expected next offset),
  // LRU-bounded to kMaxStreams. The map key packs both so matching an
  // access against every stream on the file is one hash probe.
  struct StreamKey {
    uint64_t locus = 0;
    uint64_t next = 0;
    bool operator==(const StreamKey& o) const {
      return locus == o.locus && next == o.next;
    }
  };
  struct StreamKeyHash {
    size_t operator()(const StreamKey& k) const {
      uint64_t h = k.locus * 0x9E3779B97F4A7C15ull;
      h ^= k.next + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  std::unordered_map<StreamKey, std::list<StreamKey>::iterator, StreamKeyHash>
      streams_ GUARDED_BY(mu_);
  std::list<StreamKey> stream_lru_ GUARDED_BY(mu_);  // front = most recent
};

}  // namespace logbase::sim

#endif  // LOGBASE_SIM_DISK_MODEL_H_

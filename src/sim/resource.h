// A single server in virtual time: the building block for disks and NICs.
// A request arriving at `now` with service time `s` is served in the
// earliest idle interval that fits, no earlier than `now` — usually
// max(now, free_at) + s, but a request with an earlier start time arriving
// after a future-start reservation slips into the idle gap before it (the
// server is genuinely idle there; without gap reuse, one multi-hop chain
// parking work downstream would serialize every later-issued short op
// behind it). Serializing all actors' requests through the same Resource
// is what produces queueing delay under contention.
//
// Idle gaps are kept in a flat vector sorted by start, 16 bytes a gap. A
// tail reservation that opens a new gap drops the oldest gap if more than
// 64 are then live; filling a gap can split it in two without that check,
// so the list can grow well past 64. The eviction stays as it is because
// which gaps survive decides where later requests are served. Finding the
// first fitting gap is a binary search, not a scan from the oldest gap, so
// a long list stays cheap.

#ifndef LOGBASE_SIM_RESOURCE_H_
#define LOGBASE_SIM_RESOURCE_H_

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/sim_context.h"

#include "src/util/ordered_mutex.h"

namespace logbase::sim {

/// Thread-safe virtual-time single server with idle-gap reuse.
class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Serves a request of `service_us` in the earliest idle interval
  /// starting no earlier than `now`; returns the completion time. May
  /// complete before a previously issued request whose start time was
  /// later (service order follows virtual arrival time, not call order).
  VirtualTime Acquire(VirtualTime now, VirtualTime service_us);

  /// Total time this resource has spent serving requests (utilization
  /// accounting for bottleneck analysis).
  VirtualTime total_busy_us() const;

  /// The time past every reservation made so far (the queue tail; idle
  /// gaps before it may still accept earlier-starting requests).
  VirtualTime free_at() const;

  const std::string& name() const { return name_; }

  /// Number of idle gaps currently tracked before free_at().
  size_t idle_gaps() const;

 private:
  mutable OrderedMutex mu_{lockrank::kSimResource, "sim.resource"};
  const std::string name_;
  VirtualTime free_at_ GUARDED_BY(mu_) = 0;
  VirtualTime total_busy_ GUARDED_BY(mu_) = 0;
  /// Idle intervals [start, end) before free_at_, ordered by start. The
  /// live gaps are gaps_[head_..]; evicting the oldest advances head_, and
  /// the dead prefix is erased once it outgrows the live part.
  std::vector<std::pair<VirtualTime, VirtualTime>> gaps_ GUARDED_BY(mu_);
  size_t head_ GUARDED_BY(mu_) = 0;
};

}  // namespace logbase::sim

#endif  // LOGBASE_SIM_RESOURCE_H_

#include "src/sim/resource.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

namespace logbase::sim {

namespace {
// Idle-gap cap, applied only when a tail reservation opens a new gap: the
// oldest gap is dropped, as it is the least likely to be fillable by later
// requests. Filling a gap can split it in two without consulting the cap,
// so the list does grow past it (thousands of gaps in perfbench's
// workloads). The eviction is left as it is because which gaps survive
// decides where later requests land: trimming splits too would move every
// virtual-time result. The binary search in Acquire keeps a long list
// cheap, and the flat vector keeps it small.
constexpr size_t kMaxGaps = 64;
}  // namespace

VirtualTime Resource::Acquire(VirtualTime now, VirtualTime service_us) {
  MutexLock l(mu_);
  total_busy_ += service_us;
  // First try to serve inside an idle gap left behind by a request whose
  // start time was already in this resource's future (a multi-hop chain
  // placing work downstream). Without this, one future-start reservation
  // blocks every later-arriving request at an earlier virtual time even
  // though the server is idle — short ops queue behind long chains they
  // would in reality slip ahead of.
  //
  // A gap [s, e) fits when max(s, now) + service_us <= e, so it must end at
  // or after `due`. Gaps are disjoint and non-empty, so ends ascend with
  // starts: the fitting candidates are at most one gap starting before
  // `due` (the one just before lower_bound) plus every gap from
  // lower_bound on. Starting there picks the same gap a first-fit scan
  // from the oldest gap would.
  const VirtualTime due = now + service_us;
  const auto live = gaps_.begin() + static_cast<ptrdiff_t>(head_);
  auto it = std::lower_bound(
      live, gaps_.end(), due,
      [](const auto& gap, VirtualTime t) { return gap.first < t; });
  if (it != live && std::prev(it)->second >= due) --it;
  for (; it != gaps_.end(); ++it) {
    const VirtualTime begin = std::max(it->first, now);
    const VirtualTime end = begin + service_us;
    if (end > it->second) continue;
    // What is left of the gap replaces it in place, keeping the order.
    if (begin > it->first && end < it->second) {
      const VirtualTime gap_end = it->second;
      it->second = begin;
      gaps_.insert(it + 1, {end, gap_end});
    } else if (begin > it->first) {
      it->second = begin;
    } else if (end < it->second) {
      it->first = end;
    } else {
      gaps_.erase(it);
    }
    return end;
  }
  VirtualTime begin = std::max(now, free_at_);
  if (begin > free_at_) {
    gaps_.emplace_back(free_at_, begin);
    if (gaps_.size() - head_ > kMaxGaps) {
      ++head_;  // evict the oldest gap
      if (head_ * 2 > gaps_.size()) {
        gaps_.erase(gaps_.begin(),
                    gaps_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
      }
    }
  }
  free_at_ = begin + service_us;
  return free_at_;
}

VirtualTime Resource::total_busy_us() const {
  MutexLock l(mu_);
  return total_busy_;
}

VirtualTime Resource::free_at() const {
  MutexLock l(mu_);
  return free_at_;
}

size_t Resource::idle_gaps() const {
  MutexLock l(mu_);
  return gaps_.size() - head_;
}

}  // namespace logbase::sim

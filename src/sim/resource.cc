#include "src/sim/resource.h"

#include <algorithm>
#include <iterator>

namespace logbase::sim {

namespace {
// Idle-gap cap, applied only when a tail reservation opens a new gap: the
// oldest gap is dropped, as it is the least likely to be fillable by later
// requests. Filling a gap can split it in two without consulting the cap,
// so the list does grow past it (thousands of gaps in perfbench's
// workloads). The eviction is left as it is because which gaps survive
// decides where later requests land: trimming splits too would move every
// virtual-time result. The exact lookup in Acquire keeps a long list cheap.
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
  // from begin() would.
  const VirtualTime due = now + service_us;
  auto it = gaps_.lower_bound(due);
  if (it != gaps_.begin() && std::prev(it)->second >= due) --it;
  for (; it != gaps_.end(); ++it) {
    VirtualTime begin = std::max(it->first, now);
    if (begin + service_us > it->second) continue;
    VirtualTime gap_start = it->first;
    VirtualTime gap_end = it->second;
    gaps_.erase(it);
    if (begin > gap_start) gaps_[gap_start] = begin;
    if (begin + service_us < gap_end) gaps_[begin + service_us] = gap_end;
    return begin + service_us;
  }
  VirtualTime begin = std::max(now, free_at_);
  if (begin > free_at_) {
    gaps_[free_at_] = begin;
    if (gaps_.size() > kMaxGaps) gaps_.erase(gaps_.begin());
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
  return gaps_.size();
}

void Resource::Reset() {
  MutexLock l(mu_);
  free_at_ = 0;
  total_busy_ = 0;
  gaps_.clear();
}

}  // namespace logbase::sim

#include "src/dfs/replica_view.h"

#include <algorithm>

namespace logbase::dfs {

ReplicaView::ReplicaView(int num_nodes)
    : num_nodes_(num_nodes),
      reads_(static_cast<size_t>(num_nodes) * num_nodes) {}

void ReplicaView::Record(int reader, int replica, const Read& read) {
  MutexLock l(mu_);
  std::vector<Read>& cell = reads_[reader * num_nodes_ + replica];
  cell.push_back(read);
  if (cell.size() > kKeep) {
    cell.erase(std::min_element(
        cell.begin(), cell.end(),
        [](const Read& x, const Read& y) { return x.arrived < y.arrived; }));
  }
}

ReplicaView::Seen ReplicaView::Look(int reader, int replica,
                                    sim::VirtualTime now, BlockId block,
                                    uint64_t offset) const {
  MutexLock l(mu_);
  Seen seen;
  for (const Read& r : reads_[reader * num_nodes_ + replica]) {
    if (r.sent > now) continue;  // not sent yet at `now`
    if (now < r.arrived) seen.outstanding++;
    if (r.block == block && r.end == offset) seen.continues = true;
  }
  return seen;
}

}  // namespace logbase::dfs

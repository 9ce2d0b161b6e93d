// What each DFS reader node knows of its own reads on each data node: what
// it read there, when it sent each read and when the response came back. A
// reader ranks a block's replicas by the reads it still has outstanding on
// each (the client-side signal of C3, Suresh et al., NSDI 2015): a read
// that has not come back is queued or in service there, so each one delays
// a new read sent to that data node. A read that starts where one of the
// node's earlier reads there ended continues that disk's sequential stream
// and needs no seek.
//
// The view is causal. At virtual time `now` a read counts as outstanding
// only if it was sent at or before `now` and its response arrives after
// `now`, and it continues only a read sent at or before `now`. The
// simulation may already have run another actor of the same node further
// ahead in time; a read that actor sends or hears back from after `now`
// does not exist yet for a reader at `now`.

#ifndef LOGBASE_DFS_REPLICA_VIEW_H_
#define LOGBASE_DFS_REPLICA_VIEW_H_

#include <vector>

#include "src/dfs/data_node.h"
#include "src/sim/sim_context.h"
#include "src/util/ordered_mutex.h"

namespace logbase::dfs {

/// Thread-safe. One cell per (reader node, data node).
class ReplicaView {
 public:
  explicit ReplicaView(int num_nodes);

  ReplicaView(const ReplicaView&) = delete;
  ReplicaView& operator=(const ReplicaView&) = delete;

  /// One read a reader node sent to a data node.
  struct Read {
    sim::VirtualTime sent = 0;     // when the reader sent it
    sim::VirtualTime arrived = 0;  // when its response reached the reader
    BlockId block = 0;
    uint64_t end = 0;  // the block offset the read ended at
  };

  /// Records a read `reader` sent to `replica`, once its response arrived.
  void Record(int reader, int replica, const Read& read);

  /// What `reader` knows at `now` of `replica` for a read of `block` at
  /// `offset`.
  struct Seen {
    int outstanding = 0;     // reads sent by `now` and not back yet
    bool continues = false;  // a read sent by `now` ended at `offset`
  };
  Seen Look(int reader, int replica, sim::VirtualTime now, BlockId block,
            uint64_t offset) const;

 private:
  /// Reads kept per cell; beyond this the one that came back first is
  /// dropped. It caps the outstanding reads a reader can count on one data
  /// node.
  static constexpr size_t kKeep = 32;

  const int num_nodes_;
  mutable OrderedMutex mu_{lockrank::kDfsReplicaView, "dfs.replica_view"};
  /// Cell [reader * num_nodes + replica]: that reader's recent reads there.
  std::vector<std::vector<Read>> reads_ GUARDED_BY(mu_);
};

}  // namespace logbase::dfs

#endif  // LOGBASE_DFS_REPLICA_VIEW_H_

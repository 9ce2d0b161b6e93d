// The DFS name node: file namespace (path → ordered block list), block
// placement with HDFS's rack-aware policy, and replication bookkeeping.
// Pure metadata — block bytes live on data nodes.

#ifndef LOGBASE_DFS_NAME_NODE_H_
#define LOGBASE_DFS_NAME_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/dfs/data_node.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/util/status.h"

#include "src/util/ordered_mutex.h"

namespace logbase::dfs {

/// Locations and size of one block of a file.
struct BlockInfo {
  BlockId id = 0;
  uint64_t size = 0;
  std::vector<int> replicas;  // data-node ids, pipeline order
};

/// Thread-safe metadata service.
class NameNode {
 public:
  /// `racks[i]` is the rack of data node i.
  NameNode(std::vector<int> racks, int replication);

  /// Creates an empty file; fails if it already exists.
  Status CreateFile(const std::string& path);

  /// Allocates a new block for the tail of `path`, placing replicas
  /// rack-aware: first on `writer_node` (when alive), second on a different
  /// rack, third on the second replica's rack but a different node.
  /// `alive` reports liveness per node.
  Result<BlockInfo> AllocateBlock(const std::string& path, int writer_node,
                                  const std::vector<bool>& alive);

  /// Records the final size of a block once the writer seals it.
  Status SealBlock(const std::string& path, BlockId block, uint64_t size);

  /// The id of the file `path` names: set at creation, kept across
  /// renames, never reused.
  Result<uint64_t> FileId(const std::string& path) const;
  /// A nonzero `file_id` pins the file: NotFound once `path` names another
  /// one (a rename replaced it).
  Result<std::vector<BlockInfo>> GetBlocks(const std::string& path,
                                           uint64_t file_id = 0) const;
  Result<uint64_t> FileSize(const std::string& path,
                            uint64_t file_id = 0) const;
  bool Exists(const std::string& path) const;
  /// Moves `from` to `to`, replacing any file there; returns the replaced
  /// file's blocks, which should be reclaimed (none when `to` was free).
  Result<std::vector<BlockInfo>> Rename(const std::string& from,
                                        const std::string& to);
  /// Removes the file; returns the blocks that should be reclaimed.
  Result<std::vector<BlockInfo>> DeleteFile(const std::string& path);
  Result<std::vector<std::string>> List(const std::string& prefix) const;

  /// One block copy: a surviving source and a placement target.
  struct RereplicationTask {
    std::string path;
    BlockId block;
    int source_node;
    int target_node;
  };

  /// Scans for every block whose live replica count is below the
  /// replication factor, whichever node(s) died — the periodic
  /// under-replication sweep a real NameNode runs. Emits one task per
  /// missing replica (distinct targets).
  ///
  /// `replica_complete(block, node)` reports whether the node's stored copy
  /// covers the block's committed length. A live-but-stale replica (a node
  /// that restarted after missing quorum-acked tail appends) counts as
  /// missing AND becomes a repair target, so the sweep restores full width
  /// (invariant I3). When the callback is empty, liveness alone decides.
  std::vector<RereplicationTask> PlanUnderReplicated(
      const std::vector<bool>& alive,
      const std::function<bool(const BlockInfo&, int)>& replica_complete =
          {});

  /// Registers the extra replica created by a completed re-replication.
  Status AddReplica(const std::string& path, BlockId block, int node);

  /// Fault injection: the next `count` AllocateBlock calls fail with
  /// Unavailable (NameNode overload / safe mode). 0 clears.
  void InjectAllocateFailures(int count) {
    injected_allocate_failures_.store(count, std::memory_order_relaxed);
  }

  int replication() const { return replication_; }

 private:
  struct Inode {
    uint64_t id = 0;
    std::vector<BlockInfo> blocks;
  };

  /// The inode `path` names, or null when none does or, with a nonzero
  /// `file_id`, when it is another file.
  const Inode* FindLocked(const std::string& path, uint64_t file_id) const
      REQUIRES(mu_);

  /// Picks replica nodes per the rack-aware policy.
  std::vector<int> PlaceReplicas(int writer_node,
                                 const std::vector<bool>& alive)
      REQUIRES(mu_);

  const std::vector<int> racks_;
  const int replication_;
  mutable OrderedMutex mu_{lockrank::kDfsNameNode, "dfs.name"};
  std::map<std::string, Inode> files_ GUARDED_BY(mu_);
  BlockId next_block_id_ GUARDED_BY(mu_) = 1;
  uint64_t next_file_id_ GUARDED_BY(mu_) = 1;
  Random rnd_ GUARDED_BY(mu_){12345};
  std::atomic<int> injected_allocate_failures_{0};
};

}  // namespace logbase::dfs

#endif  // LOGBASE_DFS_NAME_NODE_H_

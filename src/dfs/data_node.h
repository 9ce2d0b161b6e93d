// A DFS data node: stores replicas of fixed-size blocks and owns one
// simulated disk. Each cluster machine runs one data node and one tablet
// server (the paper's deployment), so they share the machine's node id.

#ifndef LOGBASE_DFS_DATA_NODE_H_
#define LOGBASE_DFS_DATA_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/util/result.h"
#include "src/util/slice.h"
#include "src/util/status.h"

#include "src/util/ordered_mutex.h"

namespace logbase::dfs {

using BlockId = uint64_t;

/// Thread-safe block store with simulated disk costs.
class DataNode {
 public:
  DataNode(int id, sim::DiskParams disk_params = sim::DiskParams());

  int id() const { return id_; }
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  /// Simulates a machine crash: the node stops serving; its block data
  /// survives (disks outlive processes) and is visible again after Restart().
  void Kill() { alive_.store(false, std::memory_order_release); }
  void Restart() { alive_.store(true, std::memory_order_release); }

  /// Fault injection: the next `count` block reads/writes on this node fail
  /// with IOError (a flaky disk/controller). Each failure consumes one
  /// injected error; 0 clears any that remain.
  void InjectIoErrors(int count) {
    injected_io_errors_.store(count, std::memory_order_relaxed);
  }
  int injected_io_errors() const {
    return injected_io_errors_.load(std::memory_order_relaxed);
  }

  /// Appends `data` at `offset` within the block (creating it on first
  /// write). Charges a disk access. Fails when dead or on non-contiguous
  /// append.
  Status WriteBlock(BlockId block, uint64_t offset, const Slice& data);

  /// Stores the bytes without charging disk costs — the DFS write pipeline
  /// charges the disks itself so the hops overlap (packet streaming). The
  /// pipeline hands every replica the same immutable piece, so replicas on
  /// different nodes share its memory.
  Status StoreBlockData(BlockId block, uint64_t offset,
                        std::shared_ptr<const std::string> data);

  /// Reads up to n bytes from the block at `offset`; short reads at the end
  /// of the block are not an error. Charges a disk access.
  Result<std::string> ReadBlock(BlockId block, uint64_t offset,
                                uint64_t n) const;

  Status DeleteBlock(BlockId block);
  bool HasBlock(BlockId block) const;
  Result<uint64_t> BlockSize(BlockId block) const;
  std::vector<BlockId> ListBlocks() const;

  /// Total stored bytes (all replicas hosted here).
  uint64_t used_bytes() const;

  sim::DiskModel* disk() { return &disk_; }

 private:
  /// Consumes one injected error when any are pending; returns true when
  /// this access should fail.
  bool ConsumeInjectedError() const;

  const int id_;
  std::atomic<bool> alive_{true};
  mutable std::atomic<int> injected_io_errors_{0};
  // Mutable: reads charge disk costs too.
  mutable sim::DiskModel disk_;
  mutable OrderedMutex mu_{lockrank::kDfsDataNode, "dfs.data"};
  /// A replica: its bytes as appended pieces, `starts[i]` the offset of
  /// pieces[i] within the block.
  struct StoredBlock {
    std::vector<std::shared_ptr<const std::string>> pieces;
    std::vector<uint64_t> starts;
    uint64_t size = 0;
  };
  std::unordered_map<BlockId, StoredBlock> blocks_ GUARDED_BY(mu_);
};

}  // namespace logbase::dfs

#endif  // LOGBASE_DFS_DATA_NODE_H_

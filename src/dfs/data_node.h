// A DFS data node: stores replicas of fixed-size blocks and owns one
// simulated disk. Each cluster machine runs one data node and one tablet
// server (the paper's deployment), so they share the machine's node id.
// A block's bytes are stored once, in a BlockBytes the writer appends to;
// each replica holds a reference to it plus its own length. Full chunks of
// those bytes live in a host file, a ChunkFile, that the Dfs owns.

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

/// The host file behind the block bytes of one Dfs, in fixed-size slots:
/// an HDFS data node keeps its block replicas in local files, and keeping
/// them off the heap lets a long run write more log than the host has
/// memory for. The file is unlinked once created, so it is gone when the
/// last reference closes it. A freed slot is reused by the next write.
/// Thread-safe. A failed host read or write aborts the process, as a failed
/// allocation would.
class ChunkFile {
 public:
  static constexpr uint64_t kChunkBytes = 4 << 10;

  /// Creates the file in the system temp directory.
  ChunkFile();
  ~ChunkFile();
  ChunkFile(const ChunkFile&) = delete;
  ChunkFile& operator=(const ChunkFile&) = delete;

  /// Writes kChunkBytes from `chunk` into a free slot and returns the slot.
  uint64_t Write(const char* chunk);
  /// Reads `n` bytes starting `at` bytes into slot `slot` into `out`; a
  /// read past the slot's end goes on into the slots that follow it.
  void Read(uint64_t slot, uint64_t at, uint64_t n, char* out) const;
  void Free(uint64_t slot);
  /// The slots the file spans, in use or free.
  uint64_t slot_count() const;

 private:
  const int fd_;
  mutable OrderedMutex mu_{lockrank::kDfsChunkFile, "dfs.chunk_file"};
  std::vector<uint64_t> free_ GUARDED_BY(mu_);
  uint64_t slots_ GUARDED_BY(mu_) = 0;
};

/// One block's bytes, stored once for all its replicas: the block's writer
/// appends, and each replica is a prefix of length at most size(). Each
/// full chunk is written once into the Dfs's ChunkFile; only the partial
/// last chunk stays on the heap, so a block costs the heap at most one
/// chunk. Thread-safe.
class BlockBytes {
 public:
  explicit BlockBytes(std::shared_ptr<ChunkFile> file)
      : file_(std::move(file)) {}
  ~BlockBytes();
  BlockBytes(const BlockBytes&) = delete;
  BlockBytes& operator=(const BlockBytes&) = delete;

  /// Stores `data` at `offset` <= size(). Bytes at or past `offset` came
  /// from a pipeline attempt that reached no replica, so no replica covers
  /// them; they are replaced.
  void WriteAt(uint64_t offset, const Slice& data);

  /// Appends bytes [offset, offset + n) to `out`; requires
  /// offset + n <= size().
  void CopyTo(uint64_t offset, uint64_t n, std::string* out) const;

  uint64_t size() const;

 private:
  static constexpr uint64_t kChunkBytes = ChunkFile::kChunkBytes;

  const std::shared_ptr<ChunkFile> file_;
  mutable OrderedMutex mu_{lockrank::kDfsBlockBytes, "dfs.block_bytes"};
  /// The file slot of each full chunk, in block order.
  std::vector<uint64_t> slots_ GUARDED_BY(mu_);
  /// The bytes past the last full chunk: fewer than kChunkBytes.
  std::string tail_ GUARDED_BY(mu_);
};

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

  /// Extends this node's replica of `block` (creating it on first write)
  /// from `offset` to `length` bytes of `bytes`, the block's one shared
  /// store. Charges no disk costs: the DFS write pipeline and the heal
  /// charge the disks themselves. Fails when dead, on an injected fault, or
  /// when `offset` is not the replica's length (a replica that missed
  /// appends stays a clean prefix until the heal catches it up).
  Status StoreBlockData(BlockId block, std::shared_ptr<const BlockBytes> bytes,
                        uint64_t offset, uint64_t length);

  /// Reads up to n bytes from the block at `offset`; short reads at the end
  /// of the block are not an error. Charges a disk access.
  Result<std::string> ReadBlock(BlockId block, uint64_t offset,
                                uint64_t n) const;

  Status DeleteBlock(BlockId block);
  bool HasBlock(BlockId block) const;
  Result<uint64_t> BlockSize(BlockId block) const;
  /// The shared store behind this node's replica of `block`, or null.
  std::shared_ptr<const BlockBytes> SharedBytes(BlockId block) const;
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
  /// A replica: the first `size` bytes of the block's shared store.
  struct Replica {
    std::shared_ptr<const BlockBytes> bytes;
    uint64_t size = 0;
  };
  std::unordered_map<BlockId, Replica> blocks_ GUARDED_BY(mu_);
};

}  // namespace logbase::dfs

#endif  // LOGBASE_DFS_DATA_NODE_H_

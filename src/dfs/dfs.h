// The distributed file system facade: append-only replicated files striped
// into 64 MB blocks (HDFS semantics — the paper stores both LogBase's log
// and HBase's WAL + store files in HDFS). Every sync is synchronously
// replicated before it is acknowledged, which is what lets the log-only
// design claim the stable-storage guarantee (paper §3.4, Guarantee 1): a
// plain Sync streams down the replica chain, a log's SyncWith sends to
// every replica at once and may ack at a quorum.

#ifndef LOGBASE_DFS_DFS_H_
#define LOGBASE_DFS_DFS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dfs/data_node.h"
#include "src/dfs/name_node.h"
#include "src/dfs/replica_view.h"
#include "src/sim/network_model.h"
#include "src/util/io.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logbase::dfs {

struct DfsOptions {
  int num_nodes = 3;
  /// Replication factor (the paper: 3-way, HDFS default).
  int replication = 3;
  /// Block ("chunk") size; the paper keeps HDFS's 64 MB default.
  uint64_t block_size = 64ull << 20;
  /// Rack size for the rack-aware placement policy.
  int nodes_per_rack = 8;
  sim::DiskParams disk_params;
};

/// The whole file system: one name node plus `num_nodes` data nodes.
/// Thread-safe. All client operations take the issuing machine's node id so
/// network transfers are modeled and a read can choose its replica: each
/// read goes first to the replica the reader node expects to finish it
/// soonest, judged only from what that node's own reads have told it so
/// far (ReplicaView). On an idle cluster that is the local copy.
class Dfs {
 public:
  /// If `network` is null the Dfs owns a NetworkModel of its own.
  explicit Dfs(DfsOptions options, sim::NetworkModel* network = nullptr);

  /// Creates an append-only file (error if it exists).
  Result<std::unique_ptr<WritableFile>> Create(const std::string& path,
                                               int client_node);
  /// Opens a file for positional reads; tolerates concurrent appends.
  Result<std::unique_ptr<RandomAccessFile>> Open(const std::string& path,
                                                 int client_node);

  Status Delete(const std::string& path);
  /// Moves `from` to `to`. A file already at `to` is replaced and its blocks
  /// are freed, as Delete frees them: a reader opened on it fails from then
  /// on rather than read the new file's bytes after the old one's.
  Status Rename(const std::string& from, const std::string& to);
  bool Exists(const std::string& path) const;
  Result<uint64_t> FileSize(const std::string& path) const;
  Result<std::vector<std::string>> List(const std::string& prefix) const;

  void KillDataNode(int node);
  void RestartDataNode(int node);
  /// The periodic under-replication sweep: re-replicates every block whose
  /// live replica count is below the replication factor, whatever the cause
  /// (multiple node deaths, failed pipeline replicas, earlier partial
  /// re-replication). Returns the number of block copies made.
  Result<int> HealUnderReplicated();

  int num_nodes() const { return static_cast<int>(data_nodes_.size()); }
  DataNode* data_node(int i) { return data_nodes_[i].get(); }
  NameNode* name_node() { return &name_node_; }
  sim::NetworkModel* network() { return network_; }
  const DfsOptions& options() const { return options_; }

  std::vector<bool> AliveNodes() const;

 private:
  friend class DfsWritableFile;
  friend class DfsRandomAccessFile;

  /// Charges a small metadata RPC from `client_node` to the name-node host
  /// (node 0 by convention).
  void MetadataRpc(int client_node) const;

  /// Drops every replica of `blocks` from its data node (Delete and a
  /// Rename over an existing file).
  void FreeBlocks(const std::vector<BlockInfo>& blocks);

  /// Executes re-replication copy tasks; returns the number completed.
  int ExecuteRereplication(
      const std::vector<NameNode::RereplicationTask>& tasks);

  const DfsOptions options_;
  std::unique_ptr<sim::NetworkModel> owned_network_;
  sim::NetworkModel* network_;
  NameNode name_node_;
  std::vector<std::unique_ptr<DataNode>> data_nodes_;
  /// Where every block's full chunks are kept (shared with the blocks).
  const std::shared_ptr<ChunkFile> chunk_file_ =
      std::make_shared<ChunkFile>();
  /// What each reader node has seen of each data node, shared by every
  /// file the reader has open.
  ReplicaView view_;
};

/// util::FileSystem adapter binding a Dfs to one client machine, so the
/// storage formats (sorted tables, index checkpoints, log segments) can run
/// unchanged on the DFS.
class DfsFileSystem : public FileSystem {
 public:
  DfsFileSystem(Dfs* dfs, int client_node)
      : dfs_(dfs), client_node_(client_node) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  bool Exists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

 private:
  Dfs* dfs_;
  int client_node_;
};

}  // namespace logbase::dfs

#endif  // LOGBASE_DFS_DFS_H_

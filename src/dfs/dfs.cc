#include "src/dfs/dfs.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/fault/retry_policy.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace logbase::dfs {

namespace {
constexpr uint64_t kMetadataRpcBytes = 128;
constexpr int kNameNodeHost = 0;

obs::Counter* MetaRpcs() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.meta.rpcs");
  return c;
}

obs::Counter* ReplicationBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.replication.bytes");
  return c;
}

obs::Counter* WriteBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.write.bytes");
  return c;
}

obs::Counter* PreadRemote() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.pread.remote");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer: replication pipeline with quorum or full acks.
// ---------------------------------------------------------------------------

class DfsWritableFile : public WritableFile {
 public:
  DfsWritableFile(Dfs* dfs, std::string path, int client_node)
      : dfs_(dfs), path_(std::move(path)), client_node_(client_node) {}

  // Destructors can't propagate errors; an explicit Close() reports them.
  ~DfsWritableFile() override { (void)Close(); }

  // Appends buffer client-side (HDFS streams packets asynchronously and
  // only waits for pipeline acknowledgement at sync points); Sync() pushes
  // the buffer through the replication pipeline and is the durability
  // boundary.
  Status Append(const Slice& data) override {
    w_.buffer.append(data.data(), data.size());
    w_.size += data.size();
    if (w_.buffer.size() >= kStreamChunk) return FlushBuffer();
    return Status::OK();
  }

  Status Sync() override { return FlushBuffer(); }

  // Quorum / pipelined durability: remembers the ack mode and switches the
  // file to pipelined, fanned-out syncs (so streaming flushes triggered by
  // Append() and later Sync() calls keep both). The caller's clock only
  // advances to where its first remote copy lands; `*ack_us` receives the
  // latest ack of every chunk pushed since the previous SyncWith, including
  // chunks that an Append past kStreamChunk pushed.
  Status SyncWith(AckMode ack, uint64_t* ack_us) override {
    w_.ack = ack;
    w_.pipelined = true;
    LOGBASE_RETURN_NOT_OK(FlushBuffer());
    if (ack_us != nullptr) *ack_us = static_cast<uint64_t>(w_.unsynced_ack);
    w_.unsynced_ack = 0;
    return Status::OK();
  }

  Status WaitForAcks() override {
    sim::SimContext* ctx = sim::SimContext::Current();
    if (ctx != nullptr) ctx->AdvanceTo(w_.last_ack);
    return Status::OK();
  }

  Status Close() override {
    LOGBASE_RETURN_NOT_OK(FlushBuffer());
    LOGBASE_RETURN_NOT_OK(WaitForAcks());
    w_.block_open = false;
    return Status::OK();
  }

  uint64_t Size() const override { return w_.size; }

 private:
  static constexpr size_t kStreamChunk = 1 << 20;

  Status FlushBuffer() {
    Slice remaining(w_.buffer);
    while (!remaining.empty()) {
      if (!w_.block_open || w_.block_fill >= dfs_->options_.block_size) {
        LOGBASE_RETURN_NOT_OK(StartNewBlock());
      }
      uint64_t room = dfs_->options_.block_size - w_.block_fill;
      size_t chunk_len =
          static_cast<size_t>(std::min<uint64_t>(room, remaining.size()));
      Slice chunk(remaining.data(), chunk_len);
      // A chunk that reached zero replicas stored nothing anywhere, so the
      // retry re-appends at the same offset; partial successes return OK
      // (under-replication is healed by the name node's sweep).
      LOGBASE_RETURN_NOT_OK(retry_.Run(
          "dfs.pipeline_write", [&]() { return PipelineWrite(chunk); }));
      remaining.remove_prefix(chunk_len);
    }
    w_.buffer.clear();
    return Status::OK();
  }
  Status StartNewBlock() {
    // Allocation failures (name-node overload, injected faults, transient
    // partition) are retried with backoff before the write gives up.
    return retry_.Run("dfs.allocate_block", [&]() -> Status {
      if (dfs_->network_ != nullptr &&
          !dfs_->network_->Reachable(client_node_, kNameNodeHost)) {
        return Status::Unavailable("name node unreachable");
      }
      dfs_->MetadataRpc(client_node_);
      auto block = dfs_->name_node_.AllocateBlock(path_, client_node_,
                                                  dfs_->AliveNodes());
      if (!block.ok()) return block.status();
      w_.current = *block;
      w_.bytes = std::make_shared<BlockBytes>(dfs_->chunk_file_);
      w_.block_fill = 0;
      w_.block_open = true;
      return Status::OK();
    });
  }

  /// Writes the chunk to every replica. A plain Sync streams it down the
  /// HDFS chain, client → r0 → r1 → r2: packets are pipelined, so the hops
  /// overlap, each downstream hop starting one hop latency after its
  /// upstream (`loopback_us` after a same-node hop, as the first hop to the
  /// writer's own replica is; `rpc_overhead_us` after a hop between nodes),
  /// and each NIC carries the chunk once. A pipelined file (a log, synced
  /// through SyncWith) fans the chunk out instead, as Taurus sends each log
  /// record to all of its Log Stores: the writer sends every copy from the
  /// same start time, its own NIC carrying them one after another, so the
  /// k-th remote copy waits on k wire times, not k hops. Disks write while
  /// the network streams, and every NIC/disk is still charged its full
  /// service time (so utilization and contention stay honest). A replica
  /// that is dead, or that the hop's sender can't reach, drops out (HDFS
  /// behaviour); at least one must survive.
  ///
  /// The ack point depends on the ack mode: kAll waits for every surviving
  /// replica (HDFS's strict ack), kQuorum acks at the majority-th
  /// fastest replica — a disk-stalled straggler still gets the data and is
  /// still charged its full disk/NIC time, it just completes in the
  /// background. A pipelined file's caller only advances its clock to the
  /// point its first remote copy landed; the ack is recorded for the next
  /// SyncWith to report and for WaitForAcks() to wait on. No sync waits on
  /// another's ack.
  Status PipelineWrite(const Slice& chunk) {
    obs::Span span("dfs.write");
    sim::SimContext* ctx = sim::SimContext::Current();
    sim::VirtualTime stream_begin = ctx != nullptr ? ctx->now() : 0;
    sim::VirtualTime push_done = stream_begin;
    bool pushed_remote = false;
    std::vector<sim::VirtualTime> completions;
    int prev = client_node_;
    int successes = 0;
    // The block's one copy of the bytes, shared by every replica. A retry
    // after an attempt that reached no replica rewrites the same offset.
    w_.bytes->WriteAt(w_.block_fill, chunk);
    for (int replica : w_.current.replicas) {
      DataNode* dn = dfs_->data_nodes_[replica].get();
      if (!dn->alive()) continue;
      if (dfs_->network_ != nullptr &&
          !dfs_->network_->Reachable(prev, replica)) {
        continue;
      }
      Status s = dn->StoreBlockData(w_.current.id, w_.bytes, w_.block_fill,
                                    w_.block_fill + chunk.size());
      if (!s.ok()) continue;
      if (ctx != nullptr && dfs_->network_ != nullptr) {
        sim::VirtualTime net_done = dfs_->network_->TransferFrom(
            stream_begin, prev, replica, chunk.size());
        sim::VirtualTime disk_done = dn->disk()->AccessFrom(
            stream_begin, w_.current.id, w_.block_fill, chunk.size(),
            /*is_write=*/true);
        completions.push_back(std::max(net_done, disk_done));
        if (!pushed_remote) {
          push_done = net_done;
          pushed_remote = replica != client_node_;
        }
        if (!w_.pipelined) {
          // The chain relays: the next hop sends from this replica.
          const sim::NetworkParams& net = dfs_->network_->params();
          stream_begin +=
              prev == replica ? net.loopback_us : net.rpc_overhead_us;
        }
      } else {
        // No actor: keep the disk's stream state warm, charge nothing.
        dn->disk()->Access(w_.current.id, w_.block_fill, chunk.size(),
                           /*is_write=*/true);
      }
      successes++;
      if (!w_.pipelined) prev = replica;
    }
    if (successes == 0) {
      return Status::IOError("all replicas failed for block append");
    }
    ReplicationBytes()->Add(chunk.size() * successes);
    if (ctx != nullptr && !completions.empty()) {
      sim::VirtualTime ack =
          *std::max_element(completions.begin(), completions.end());
      int quorum = dfs_->options_.replication / 2 + 1;
      if (w_.ack == AckMode::kQuorum &&
          static_cast<int>(completions.size()) >= quorum) {
        // The quorum-th fastest completion acks the write; if the pipeline
        // already degraded below quorum width, every survivor must ack
        // (the heal sweep restores full width afterwards, invariant I3).
        std::nth_element(completions.begin(),
                         completions.begin() + (quorum - 1),
                         completions.end());
        ack = completions[quorum - 1];
      }
      w_.unsynced_ack = std::max(w_.unsynced_ack, ack);
      w_.last_ack = std::max(w_.last_ack, ack);
      if (w_.pipelined) {
        ctx->AdvanceTo(push_done);
      } else {
        ctx->AdvanceTo(ack);
      }
    }
    w_.block_fill += chunk.size();
    // Publish the new length so concurrent readers can see the tail.
    return dfs_->name_node_.SealBlock(path_, w_.current.id, w_.block_fill);
  }

  Dfs* const dfs_;
  const std::string path_;
  const int client_node_;
  fault::RetryPolicy retry_{
      fault::RetryOptions{.seed = 0x0df5u}};  // shared per-writer policy
  /// The file's write state. Only its one writer calls into it, so this
  /// takes no lock (the reader's mutex further down does not cover it).
  struct WriteState {
    std::string buffer;  // appended but not yet pipelined
    // Sticky ack policy: the strict unpipelined chain until the first
    // SyncWith(), then that call's ack mode, pipelined.
    AckMode ack = AckMode::kAll;
    bool pipelined = false;
    sim::VirtualTime unsynced_ack = 0;  // latest ack since the last SyncWith
    sim::VirtualTime last_ack = 0;      // latest ack of any chunk
    BlockInfo current;
    std::shared_ptr<BlockBytes> bytes;  // current's bytes, appended here
    bool block_open = false;
    uint64_t block_fill = 0;
    uint64_t size = 0;
  };
  WriteState w_;
};

// ---------------------------------------------------------------------------
// Reader: replica selection by expected completion, location caching.
// ---------------------------------------------------------------------------

class DfsRandomAccessFile : public RandomAccessFile {
 public:
  DfsRandomAccessFile(Dfs* dfs, std::string path, uint64_t file_id,
                      int client_node)
      : dfs_(dfs),
        path_(std::move(path)),
        file_id_(file_id),
        client_node_(client_node) {}

  Result<std::string> Read(uint64_t offset, size_t n) const override {
    auto blocks = Locations(offset + n);
    if (!blocks.ok()) return blocks.status();
    std::string out;
    uint64_t block_start = 0;
    for (const BlockInfo& b : **blocks) {
      uint64_t block_end = block_start + b.size;
      if (offset < block_end && offset + n > block_start) {
        uint64_t in_off = offset > block_start ? offset - block_start : 0;
        uint64_t want =
            std::min<uint64_t>(offset + n, block_end) - (block_start + in_off);
        auto piece = ReadFromReplica(b, in_off, want);
        if (!piece.ok()) return piece.status();
        out += *piece;
      }
      block_start = block_end;
      if (block_start >= offset + n) break;
    }
    return out;
  }

  uint64_t Size() const override {
    auto size = dfs_->name_node_.FileSize(path_, file_id_);
    return size.ok() ? *size : 0;
  }

 private:
  using BlockList = std::shared_ptr<const std::vector<BlockInfo>>;

  /// The cached block locations, refetched from the name node when they
  /// cover fewer than `need_bytes` (the file grew since they were fetched).
  Result<BlockList> Locations(uint64_t need_bytes) const {
    MutexLock l(mu_);
    if (blocks_ != nullptr && !blocks_->empty()) {
      uint64_t cached = 0;
      for (const BlockInfo& b : *blocks_) cached += b.size;
      if (cached >= need_bytes) return blocks_;
    }
    dfs_->MetadataRpc(client_node_);
    auto blocks = dfs_->name_node_.GetBlocks(path_, file_id_);
    if (!blocks.ok()) return blocks.status();
    blocks_ =
        std::make_shared<const std::vector<BlockInfo>>(std::move(*blocks));
    return blocks_;
  }

  /// One of a block's replicas, as this reader ranks it for one read.
  struct Candidate {
    int replica;
    int rank;                   // locality order: local 0, then remotes
    sim::VirtualTime expected;  // time to completion this reader expects
  };

  /// The order to try `b`'s replicas in for a read at `offset` sent at
  /// `now`: by the completion this reader node expects from each, judged
  /// only from what it knows at `now` (ReplicaView). Each read the node
  /// still has outstanding on a replica is ahead of this one and costs a
  /// seek plus half-rotation. The read's own cost is the same, unless it
  /// starts where one of the node's reads on that replica ended; then it
  /// continues that disk's sequential stream and costs transfer only. The
  /// transfer is the same on every replica, so it is left out. So a
  /// random read leaves a local disk its node is already waiting on for a
  /// replica where it waits on less, while a reader tailing a file
  /// (replica catch-up, recovery, re-replication) stays on its replica's
  /// stream, even when each poll opens the file afresh. Ties keep the
  /// locality order: the local replica, then the remotes sorted and
  /// rotated by the reader's id, so an idle cluster reads locally and
  /// concurrent remote readers of a hot file spread across replicas.
  std::vector<Candidate> ReplicaOrder(const BlockInfo& b, uint64_t offset,
                                      sim::VirtualTime now) const {
    int remotes = 0;
    for (int r : b.replicas) remotes += r != client_node_ ? 1 : 0;
    std::vector<Candidate> order;
    order.reserve(b.replicas.size());
    for (int r : b.replicas) {
      int rank = 0;
      if (r != client_node_) {
        int below = 0;  // r's index among the sorted remotes
        for (int q : b.replicas) below += q != client_node_ && q < r ? 1 : 0;
        rank = 1 + (below - client_node_ % remotes + remotes) % remotes;
      }
      const sim::DiskParams& disk = dfs_->data_nodes_[r]->disk()->params();
      const sim::VirtualTime positioning = disk.seek_us + disk.rotational_us;
      const ReplicaView::Seen seen =
          dfs_->view_.Look(client_node_, r, now, b.id, offset);
      const int seeks = seen.outstanding + (seen.continues ? 0 : 1);
      order.push_back(Candidate{r, rank, seeks * positioning});
    }
    std::sort(order.begin(), order.end(),
              [](const Candidate& x, const Candidate& y) {
                return x.expected != y.expected ? x.expected < y.expected
                                                : x.rank < y.rank;
              });
    return order;
  }

  Result<std::string> ReadFromReplica(const BlockInfo& b, uint64_t offset,
                                      uint64_t n) const {
    sim::SimContext* ctx = sim::SimContext::Current();
    Status last = Status::Unavailable("no replicas");
    std::string best;
    bool have_best = false;
    for (const Candidate& c :
         ReplicaOrder(b, offset, ctx != nullptr ? ctx->now() : 0)) {
      const int r = c.replica;
      DataNode* dn = dfs_->data_nodes_[r].get();
      if (!dn->alive()) continue;
      if (dfs_->network_ != nullptr &&
          !dfs_->network_->Reachable(client_node_, r)) {
        last = Status::Unavailable("replica unreachable");
        continue;
      }
      const sim::VirtualTime sent = ctx != nullptr ? ctx->now() : 0;
      auto data = dn->ReadBlock(b.id, offset, n);
      if (data.ok()) {
        if (dfs_->network_ != nullptr) {
          dfs_->network_->Transfer(r, client_node_, data->size());
        }
        if (ctx != nullptr) {
          dfs_->view_.Record(client_node_, r,
                             {sent, ctx->now(), b.id, offset + data->size()});
        }
        if (r != client_node_) PreadRemote()->Add();
        if (data->size() >= n) return data;
        // Short read: this replica is missing bytes the name node sealed —
        // it fell out of a quorum-acked pipeline append and has not been
        // healed yet. Its bytes are a clean prefix (appends are
        // contiguous), so keep the longest prefix across replicas.
        if (!have_best || data->size() > best.size()) {
          best = std::move(*data);
          have_best = true;
        }
        continue;
      }
      last = data.status();
    }
    if (have_best) return best;
    return last;
  }

  Dfs* const dfs_;
  const std::string path_;
  // The file opened: a rename that replaces it does not swap it under the
  // reader.
  const uint64_t file_id_;
  const int client_node_;
  // Readers may share the file: its cached locations are swapped under
  // mu_, never held across a data node's read.
  mutable OrderedMutex mu_{lockrank::kDfsReader, "dfs.reader"};
  mutable BlockList blocks_ GUARDED_BY(mu_);  // cached locations
};

// ---------------------------------------------------------------------------
// Dfs facade.
// ---------------------------------------------------------------------------

namespace {

std::vector<int> MakeRacks(const DfsOptions& options) {
  std::vector<int> racks(options.num_nodes);
  for (int i = 0; i < options.num_nodes; i++) {
    racks[i] = i / std::max(1, options.nodes_per_rack);
  }
  return racks;
}

}  // namespace

Dfs::Dfs(DfsOptions options, sim::NetworkModel* network)
    : options_(options),
      owned_network_(network == nullptr
                         ? std::make_unique<sim::NetworkModel>(options.num_nodes)
                         : nullptr),
      network_(network == nullptr ? owned_network_.get() : network),
      name_node_(MakeRacks(options), options.replication),
      view_(options.num_nodes) {
  data_nodes_.reserve(options.num_nodes);
  for (int i = 0; i < options.num_nodes; i++) {
    data_nodes_.push_back(std::make_unique<DataNode>(i, options.disk_params));
  }
}

void Dfs::MetadataRpc(int client_node) const {
  MetaRpcs()->Add();
  if (network_ != nullptr) {
    network_->Transfer(client_node, kNameNodeHost, kMetadataRpcBytes);
  }
}

std::vector<bool> Dfs::AliveNodes() const {
  std::vector<bool> alive(data_nodes_.size());
  for (size_t i = 0; i < data_nodes_.size(); i++) {
    alive[i] = data_nodes_[i]->alive();
  }
  return alive;
}

Result<std::unique_ptr<WritableFile>> Dfs::Create(const std::string& path,
                                                  int client_node) {
  MetadataRpc(client_node);
  LOGBASE_RETURN_NOT_OK(name_node_.CreateFile(path));
  return std::unique_ptr<WritableFile>(
      new DfsWritableFile(this, path, client_node));
}

Result<std::unique_ptr<RandomAccessFile>> Dfs::Open(const std::string& path,
                                                    int client_node) {
  MetadataRpc(client_node);
  auto file_id = name_node_.FileId(path);
  if (!file_id.ok()) return file_id.status();
  return std::unique_ptr<RandomAccessFile>(
      new DfsRandomAccessFile(this, path, *file_id, client_node));
}

void Dfs::FreeBlocks(const std::vector<BlockInfo>& blocks) {
  for (const BlockInfo& b : blocks) {
    for (int r : b.replicas) {
      // A replica missing its block (dead or already-cleaned node) is fine:
      // the file's metadata is gone either way.
      (void)data_nodes_[r]->DeleteBlock(b.id);
    }
  }
}

Status Dfs::Delete(const std::string& path) {
  auto blocks = name_node_.DeleteFile(path);
  if (!blocks.ok()) return blocks.status();
  FreeBlocks(*blocks);
  return Status::OK();
}

Status Dfs::Rename(const std::string& from, const std::string& to) {
  auto replaced = name_node_.Rename(from, to);
  if (!replaced.ok()) return replaced.status();
  FreeBlocks(*replaced);
  return Status::OK();
}

bool Dfs::Exists(const std::string& path) const {
  return name_node_.Exists(path);
}

Result<uint64_t> Dfs::FileSize(const std::string& path) const {
  return name_node_.FileSize(path);
}

Result<std::vector<std::string>> Dfs::List(const std::string& prefix) const {
  return name_node_.List(prefix);
}

void Dfs::KillDataNode(int node) { data_nodes_[node]->Kill(); }

void Dfs::RestartDataNode(int node) { data_nodes_[node]->Restart(); }

int Dfs::ExecuteRereplication(
    const std::vector<NameNode::RereplicationTask>& tasks) {
  int copied = 0;
  for (const auto& task : tasks) {
    DataNode* src = data_nodes_[task.source_node].get();
    DataNode* dst = data_nodes_[task.target_node].get();
    auto size = src->BlockSize(task.block);
    std::shared_ptr<const BlockBytes> bytes = src->SharedBytes(task.block);
    if (!size.ok() || bytes == nullptr) continue;
    // A stale target (restarted after missing tail appends) already holds a
    // prefix of the block; copy only the missing tail, contiguously.
    uint64_t dst_have = 0;
    if (dst->HasBlock(task.block)) {
      auto have = dst->BlockSize(task.block);
      if (have.ok()) dst_have = *have;
      if (dst_have >= *size) continue;  // already complete
    }
    auto data = src->ReadBlock(task.block, dst_have, *size - dst_have);
    if (!data.ok()) continue;
    if (network_ != nullptr) {
      network_->Transfer(task.source_node, task.target_node, data->size());
    }
    // The target pays the disk write, but stores no second copy: its
    // replica extends over the block's shared bytes.
    obs::Span span("dfs.write");
    Status s = dst->StoreBlockData(task.block, std::move(bytes), dst_have,
                                   dst_have + data->size());
    if (!s.ok()) continue;
    WriteBytes()->Add(data->size());
    dst->disk()->Access(task.block, dst_have, data->size(), /*is_write=*/true);
    s = name_node_.AddReplica(task.path, task.block, task.target_node);
    if (!s.ok()) continue;  // file deleted mid-copy
    copied++;
  }
  obs::MetricsRegistry::Global()
      .counter("dfs.replication.recovered_blocks")
      ->Add(copied);
  return copied;
}

Result<int> Dfs::HealUnderReplicated() {
  // Iterate: a sweep can itself be partially blocked (sources unreachable),
  // and each completed copy may enable another; stop at a fixpoint.
  // A replica is intact only if its stored copy covers the block's
  // committed length — a node that restarted after missing quorum-acked
  // tail appends holds a stale prefix and must be caught up.
  auto replica_complete = [this](const BlockInfo& b, int node) {
    auto stored = data_nodes_[node]->BlockSize(b.id);
    return stored.ok() && *stored >= b.size;
  };
  int total = 0;
  for (int round = 0; round < options_.replication; round++) {
    auto tasks = name_node_.PlanUnderReplicated(AliveNodes(), replica_complete);
    if (tasks.empty()) break;
    int copied = ExecuteRereplication(tasks);
    total += copied;
    if (copied == 0) break;
  }
  if (total > 0) {
    LOGBASE_LOG(kInfo, "under-replication sweep copied %d blocks", total);
  }
  return total;
}

// ---------------------------------------------------------------------------
// FileSystem adapter.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WritableFile>> DfsFileSystem::NewWritableFile(
    const std::string& path) {
  // FileSystem::NewWritableFile truncates; DFS files are create-once, so
  // delete any existing file first.
  if (dfs_->Exists(path)) {
    LOGBASE_RETURN_NOT_OK(dfs_->Delete(path));
  }
  return dfs_->Create(path, client_node_);
}

Result<std::unique_ptr<RandomAccessFile>> DfsFileSystem::NewRandomAccessFile(
    const std::string& path) {
  return dfs_->Open(path, client_node_);
}

Status DfsFileSystem::DeleteFile(const std::string& path) {
  return dfs_->Delete(path);
}

Status DfsFileSystem::Rename(const std::string& from, const std::string& to) {
  return dfs_->Rename(from, to);
}

bool DfsFileSystem::Exists(const std::string& path) {
  return dfs_->Exists(path);
}

Result<uint64_t> DfsFileSystem::FileSize(const std::string& path) {
  return dfs_->FileSize(path);
}

Result<std::vector<std::string>> DfsFileSystem::List(
    const std::string& prefix) {
  return dfs_->List(prefix);
}

}  // namespace logbase::dfs

#include "src/dfs/dfs.h"

#include <algorithm>
#include <deque>

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

}  // namespace

// ---------------------------------------------------------------------------
// Writer: replication pipeline with policy-controlled acks.
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
    buffer_.append(data.data(), data.size());
    size_ += data.size();
    if (buffer_.size() >= kStreamChunk) {
      return FlushBuffer(policy_, nullptr);
    }
    return Status::OK();
  }

  Status Sync() override { return FlushBuffer(policy_, nullptr); }

  // Quorum / pipelined durability: remembers the policy (so streaming
  // flushes triggered by Append() keep using it) and reports when the ack
  // landed on the virtual clock. With max_inflight > 1 the caller's clock
  // only advances to the point its NIC finished streaming the chunk; the
  // replication pipeline's completion is tracked as an outstanding ack.
  Status SyncWith(const SyncPolicy& policy, SyncReceipt* receipt) override {
    policy_ = policy;
    return FlushBuffer(policy, receipt);
  }

  Status WaitForAcks() override {
    sim::SimContext* ctx = sim::SimContext::Current();
    if (ctx != nullptr) {
      for (sim::VirtualTime ack : inflight_acks_) ctx->AdvanceTo(ack);
    }
    inflight_acks_.clear();
    return Status::OK();
  }

  Status Close() override {
    LOGBASE_RETURN_NOT_OK(FlushBuffer(policy_, nullptr));
    LOGBASE_RETURN_NOT_OK(WaitForAcks());
    block_open_ = false;
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  static constexpr size_t kStreamChunk = 1 << 20;

  Status FlushBuffer(const SyncPolicy& policy, SyncReceipt* receipt) {
    Slice remaining(buffer_);
    sim::VirtualTime ack_us = 0;
    sim::VirtualTime full_us = 0;
    while (!remaining.empty()) {
      if (!block_open_ || block_fill_ >= dfs_->options_.block_size) {
        LOGBASE_RETURN_NOT_OK(StartNewBlock());
      }
      uint64_t room = dfs_->options_.block_size - block_fill_;
      size_t chunk_len =
          static_cast<size_t>(std::min<uint64_t>(room, remaining.size()));
      Slice chunk(remaining.data(), chunk_len);
      // A chunk that reached zero replicas stored nothing anywhere, so the
      // retry re-appends at the same offset; partial successes return OK
      // (under-replication is healed by the name node's sweep).
      LOGBASE_RETURN_NOT_OK(retry_.Run("dfs.pipeline_write", [&]() {
        return PipelineWrite(chunk, policy, &ack_us, &full_us);
      }));
      remaining.remove_prefix(chunk_len);
    }
    buffer_.clear();
    if (receipt != nullptr) {
      receipt->ack_us = static_cast<uint64_t>(ack_us);
      receipt->full_us = static_cast<uint64_t>(full_us);
    }
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
      current_ = *block;
      block_fill_ = 0;
      block_open_ = true;
      return Status::OK();
    });
  }

  /// Streams the chunk through the replica pipeline: client → r0 → r1 → r2.
  /// HDFS pipelines packets, so the hops overlap: each downstream hop
  /// starts one RPC overhead after its upstream, and disks write while the
  /// network streams. Total latency ≈ max(stage time) + per-hop overheads,
  /// while every NIC/disk is still charged its full service time (so
  /// utilization and contention stay honest). Dead replicas are dropped
  /// from the pipeline (HDFS behaviour); at least one must survive.
  ///
  /// The ack point depends on the policy: kAll waits for every surviving
  /// replica (the strict chain ack), kQuorum acks at the majority-th
  /// fastest replica — a disk-stalled straggler still gets the data and is
  /// still charged its full disk/NIC time, it just completes in the
  /// background. With max_inflight > 1 the caller's clock only advances to
  /// the point its own NIC finished streaming; the ack is tracked as
  /// outstanding and collected by WaitForAcks()/a later sync (bounded
  /// in-flight depth).
  Status PipelineWrite(const Slice& chunk, const SyncPolicy& policy,
                       sim::VirtualTime* ack_out,
                       sim::VirtualTime* full_out) {
    obs::Span span("dfs.write");
    sim::SimContext* ctx = sim::SimContext::Current();
    sim::VirtualTime stream_begin = ctx != nullptr ? ctx->now() : 0;
    sim::VirtualTime push_done = stream_begin;
    std::vector<sim::VirtualTime> completions;
    int prev = client_node_;
    int successes = 0;
    // One copy of the bytes, shared by every replica that stores them.
    auto piece = std::make_shared<const std::string>(chunk.data(),
                                                     chunk.size());
    for (int replica : current_.replicas) {
      DataNode* dn = dfs_->data_nodes_[replica].get();
      if (!dn->alive()) continue;
      // A replica the upstream hop can't reach drops out of the pipeline
      // exactly like a dead one (HDFS excludes it and continues).
      if (dfs_->network_ != nullptr &&
          !dfs_->network_->Reachable(prev, replica)) {
        continue;
      }
      Status s = dn->StoreBlockData(current_.id, block_fill_, piece);
      if (!s.ok()) continue;
      if (ctx != nullptr && dfs_->network_ != nullptr) {
        sim::VirtualTime net_done = dfs_->network_->TransferFrom(
            stream_begin, prev, replica, chunk.size());
        sim::VirtualTime disk_done = dn->disk()->AccessFrom(
            stream_begin, current_.id, block_fill_, chunk.size(),
            /*is_write=*/true);
        completions.push_back(std::max(net_done, disk_done));
        if (prev == client_node_) push_done = net_done;
        stream_begin += dfs_->network_->params().rpc_overhead_us;
      } else {
        // No actor: keep the disk's stream state warm, charge nothing.
        dn->disk()->Access(current_.id, block_fill_, chunk.size(),
                           /*is_write=*/true);
      }
      successes++;
      prev = replica;
    }
    if (successes == 0) {
      return Status::IOError("all replicas failed for block append");
    }
    ReplicationBytes()->Add(chunk.size() * successes);
    if (ctx != nullptr && !completions.empty()) {
      sim::VirtualTime full =
          *std::max_element(completions.begin(), completions.end());
      sim::VirtualTime ack = full;
      int quorum = dfs_->options_.replication / 2 + 1;
      if (policy.ack == SyncPolicy::Ack::kQuorum &&
          static_cast<int>(completions.size()) >= quorum) {
        // The quorum-th fastest completion acks the write; if the pipeline
        // already degraded below quorum width, every survivor must ack
        // (the heal sweep restores full width afterwards, invariant I3).
        std::nth_element(completions.begin(),
                         completions.begin() + (quorum - 1),
                         completions.end());
        ack = completions[quorum - 1];
      }
      if (ack_out != nullptr) *ack_out = std::max(*ack_out, ack);
      if (full_out != nullptr) *full_out = std::max(*full_out, full);
      if (policy.max_inflight > 1) {
        ctx->AdvanceTo(push_done);
        inflight_acks_.push_back(ack);
        while (static_cast<int>(inflight_acks_.size()) >=
               policy.max_inflight) {
          ctx->AdvanceTo(inflight_acks_.front());
          inflight_acks_.pop_front();
        }
      } else {
        ctx->AdvanceTo(ack);
      }
    }
    block_fill_ += chunk.size();
    size_ += chunk.size();
    // Publish the new length so concurrent readers can see the tail.
    return dfs_->name_node_.SealBlock(path_, current_.id, block_fill_);
  }

  Dfs* dfs_;
  const std::string path_;
  const int client_node_;
  fault::RetryPolicy retry_{
      fault::RetryOptions{.seed = 0x0df5u}};  // shared per-writer policy
  std::string buffer_;  // appended but not yet pipelined
  SyncPolicy policy_;   // sticky: the last policy a SyncWith() installed
  std::deque<sim::VirtualTime> inflight_acks_;  // pipelined, not yet waited
  BlockInfo current_;
  bool block_open_ = false;
  uint64_t block_fill_ = 0;
  uint64_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Reader: replica selection with data locality, location caching.
// ---------------------------------------------------------------------------

class DfsRandomAccessFile : public RandomAccessFile {
 public:
  DfsRandomAccessFile(Dfs* dfs, std::string path, int client_node)
      : dfs_(dfs), path_(std::move(path)), client_node_(client_node) {}

  Result<std::string> Read(uint64_t offset, size_t n) const override {
    LOGBASE_RETURN_NOT_OK(RefreshLocationsIfNeeded(offset + n));
    std::string out;
    uint64_t block_start = 0;
    for (const BlockInfo& b : blocks_) {
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
    auto size = dfs_->name_node_.FileSize(path_);
    return size.ok() ? *size : 0;
  }

 private:
  Status RefreshLocationsIfNeeded(uint64_t need_bytes) const {
    if (!blocks_.empty()) {
      uint64_t cached = 0;
      for (const BlockInfo& b : blocks_) cached += b.size;
      if (cached >= need_bytes) return Status::OK();
    }
    dfs_->MetadataRpc(client_node_);
    auto blocks = dfs_->name_node_.GetBlocks(path_);
    if (!blocks.ok()) return blocks.status();
    blocks_ = std::move(*blocks);
    return Status::OK();
  }

  Result<std::string> ReadFromReplica(const BlockInfo& b, uint64_t offset,
                                      uint64_t n) const {
    // Prefer the local replica (HDFS short-circuit read). Remote order is
    // sticky per reader node — sorted, then rotated by the reader's id — so
    // concurrent readers of a hot file spread across replicas while each
    // reader keeps hitting the same disk. Stickiness matters: a reader that
    // tails a file sequentially (replica catch-up, re-replication) only gets
    // the disk's sequential-stream rate if consecutive reads land on the
    // same replica; chasing the least-busy disk per call breaks the stream
    // and pays full positioning every time.
    std::vector<int> order;
    std::vector<int> remote;
    for (int r : b.replicas) {
      if (r == client_node_) order.push_back(r);
      else remote.push_back(r);
    }
    std::sort(remote.begin(), remote.end());
    if (!remote.empty()) {
      std::rotate(remote.begin(),
                  remote.begin() + client_node_ % remote.size(),
                  remote.end());
    }
    order.insert(order.end(), remote.begin(), remote.end());
    Status last = Status::Unavailable("no replicas");
    std::string best;
    bool have_best = false;
    for (int r : order) {
      DataNode* dn = dfs_->data_nodes_[r].get();
      if (!dn->alive()) continue;
      if (dfs_->network_ != nullptr &&
          !dfs_->network_->Reachable(client_node_, r)) {
        last = Status::Unavailable("replica unreachable");
        continue;
      }
      auto data = dn->ReadBlock(b.id, offset, n);
      if (data.ok()) {
        if (dfs_->network_ != nullptr) {
          dfs_->network_->Transfer(r, client_node_, data->size());
        }
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

  Dfs* dfs_;
  const std::string path_;
  const int client_node_;
  mutable std::vector<BlockInfo> blocks_;  // cached locations
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
      name_node_(MakeRacks(options), options.replication) {
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
  if (!name_node_.Exists(path)) return Status::NotFound(path);
  return std::unique_ptr<RandomAccessFile>(
      new DfsRandomAccessFile(this, path, client_node));
}

Status Dfs::Delete(const std::string& path) {
  auto blocks = name_node_.DeleteFile(path);
  if (!blocks.ok()) return blocks.status();
  for (const BlockInfo& b : *blocks) {
    for (int r : b.replicas) {
      // A replica missing its block (dead or already-cleaned node) is fine:
      // the file's metadata is gone either way.
      (void)data_nodes_[r]->DeleteBlock(b.id);
    }
  }
  return Status::OK();
}

Status Dfs::Rename(const std::string& from, const std::string& to) {
  return name_node_.Rename(from, to);
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
    if (!size.ok()) continue;
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
    Status s = dst->WriteBlock(task.block, dst_have, *data);
    if (!s.ok()) continue;
    s = name_node_.AddReplica(task.path, task.block, task.target_node);
    if (!s.ok()) continue;  // file deleted mid-copy
    copied++;
  }
  obs::MetricsRegistry::Global()
      .counter("dfs.replication.recovered_blocks")
      ->Add(copied);
  return copied;
}

Result<int> Dfs::Rereplicate(int dead_node) {
  auto tasks = name_node_.PlanRereplication(dead_node, AliveNodes());
  int copied = ExecuteRereplication(tasks);
  LOGBASE_LOG(kInfo, "re-replicated %d blocks after node %d failure", copied,
              dead_node);
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

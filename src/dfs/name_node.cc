#include "src/dfs/name_node.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace logbase::dfs {

NameNode::NameNode(std::vector<int> racks, int replication)
    : racks_(std::move(racks)), replication_(replication) {}

Status NameNode::CreateFile(const std::string& path) {
  MutexLock l(mu_);
  auto [it, inserted] = files_.try_emplace(path);
  if (!inserted) return Status::InvalidArgument("file exists: " + path);
  it->second.id = next_file_id_++;
  return Status::OK();
}

std::vector<int> NameNode::PlaceReplicas(int writer_node,
                                         const std::vector<bool>& alive) {
  const int n = static_cast<int>(racks_.size());
  std::vector<int> chosen;
  auto is_chosen = [&chosen](int node) {
    return std::find(chosen.begin(), chosen.end(), node) != chosen.end();
  };

  // First replica: the writer's own node when alive (HDFS data locality).
  if (writer_node >= 0 && writer_node < n && alive[writer_node]) {
    chosen.push_back(writer_node);
  }

  // Second replica: a node on a different rack than the first.
  if (static_cast<int>(chosen.size()) < replication_ && !chosen.empty()) {
    int first_rack = racks_[chosen[0]];
    std::vector<int> candidates;
    for (int i = 0; i < n; i++) {
      if (alive[i] && racks_[i] != first_rack && !is_chosen(i)) {
        candidates.push_back(i);
      }
    }
    if (!candidates.empty()) {
      chosen.push_back(candidates[rnd_.Uniform(candidates.size())]);
    }
  }

  // Third replica: same rack as the second, different node.
  if (static_cast<int>(chosen.size()) < replication_ && chosen.size() >= 2) {
    int second_rack = racks_[chosen[1]];
    std::vector<int> candidates;
    for (int i = 0; i < n; i++) {
      if (alive[i] && racks_[i] == second_rack && !is_chosen(i)) {
        candidates.push_back(i);
      }
    }
    if (!candidates.empty()) {
      chosen.push_back(candidates[rnd_.Uniform(candidates.size())]);
    }
  }

  // Fill any remaining slots (or handle a dead writer) with arbitrary live
  // nodes — availability beats placement.
  while (static_cast<int>(chosen.size()) < replication_) {
    std::vector<int> candidates;
    for (int i = 0; i < n; i++) {
      if (alive[i] && !is_chosen(i)) candidates.push_back(i);
    }
    if (candidates.empty()) break;
    chosen.push_back(candidates[rnd_.Uniform(candidates.size())]);
  }
  return chosen;
}

Result<BlockInfo> NameNode::AllocateBlock(const std::string& path,
                                          int writer_node,
                                          const std::vector<bool>& alive) {
  int pending = injected_allocate_failures_.load(std::memory_order_relaxed);
  while (pending > 0) {
    if (injected_allocate_failures_.compare_exchange_weak(
            pending, pending - 1, std::memory_order_relaxed)) {
      static obs::Counter* injected =
          obs::MetricsRegistry::Global().counter("fault.injected.meta_errors");
      injected->Add();
      return Status::Unavailable("injected allocate failure");
    }
  }
  MutexLock l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  BlockInfo info;
  info.id = next_block_id_++;
  info.replicas = PlaceReplicas(writer_node, alive);
  if (info.replicas.empty()) {
    return Status::Unavailable("no live data nodes for block placement");
  }
  it->second.blocks.push_back(info);
  static obs::Counter* allocs =
      obs::MetricsRegistry::Global().counter("dfs.meta.block_allocs");
  allocs->Add();
  return info;
}

Status NameNode::SealBlock(const std::string& path, BlockId block,
                           uint64_t size) {
  MutexLock l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  for (BlockInfo& b : it->second.blocks) {
    if (b.id == block) {
      b.size = size;
      return Status::OK();
    }
  }
  return Status::NotFound("block not in file");
}

const NameNode::Inode* NameNode::FindLocked(const std::string& path,
                                            uint64_t file_id) const {
  auto it = files_.find(path);
  if (it == files_.end()) return nullptr;
  if (file_id != 0 && it->second.id != file_id) return nullptr;
  return &it->second;
}

Result<uint64_t> NameNode::FileId(const std::string& path) const {
  MutexLock l(mu_);
  const Inode* inode = FindLocked(path, 0);
  if (inode == nullptr) return Status::NotFound(path);
  return inode->id;
}

Result<std::vector<BlockInfo>> NameNode::GetBlocks(const std::string& path,
                                                   uint64_t file_id) const {
  MutexLock l(mu_);
  const Inode* inode = FindLocked(path, file_id);
  if (inode == nullptr) return Status::NotFound(path);
  return inode->blocks;
}

Result<uint64_t> NameNode::FileSize(const std::string& path,
                                    uint64_t file_id) const {
  MutexLock l(mu_);
  const Inode* inode = FindLocked(path, file_id);
  if (inode == nullptr) return Status::NotFound(path);
  uint64_t total = 0;
  for (const BlockInfo& b : inode->blocks) total += b.size;
  return total;
}

bool NameNode::Exists(const std::string& path) const {
  MutexLock l(mu_);
  return files_.count(path) > 0;
}

Result<std::vector<BlockInfo>> NameNode::Rename(const std::string& from,
                                                const std::string& to) {
  MutexLock l(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound(from);
  std::vector<BlockInfo> replaced;
  if (from == to) return replaced;
  Inode& target = files_[to];
  replaced = std::move(target.blocks);
  target = std::move(it->second);
  files_.erase(it);
  return replaced;
}

Result<std::vector<BlockInfo>> NameNode::DeleteFile(const std::string& path) {
  MutexLock l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  std::vector<BlockInfo> blocks = std::move(it->second.blocks);
  files_.erase(it);
  return blocks;
}

Result<std::vector<std::string>> NameNode::List(
    const std::string& prefix) const {
  MutexLock l(mu_);
  std::vector<std::string> names;
  for (const auto& [path, inode] : files_) {
    if (Slice(path).starts_with(prefix)) names.push_back(path);
  }
  return names;
}

std::vector<NameNode::RereplicationTask> NameNode::PlanUnderReplicated(
    const std::vector<bool>& alive,
    const std::function<bool(const BlockInfo&, int)>& replica_complete) {
  MutexLock l(mu_);
  std::vector<RereplicationTask> tasks;
  const int n = static_cast<int>(racks_.size());
  int alive_nodes = 0;
  for (int i = 0; i < n; i++) {
    if (alive[i]) alive_nodes++;
  }
  // With fewer live nodes than the replication factor, full replication is
  // unreachable; aim for one replica per live node instead.
  const int want = std::min(replication_, alive_nodes);
  for (auto& [path, inode] : files_) {
    for (BlockInfo& b : inode.blocks) {
      // Only intact replicas (live, copy covers the committed length) count
      // toward the replication target or can serve as copy sources. A stale
      // replica — a node that restarted after missing quorum-acked tail
      // appends — needs its missing tail re-copied in place.
      std::vector<int> intact;
      std::vector<int> stale;
      for (int r : b.replicas) {
        if (r < 0 || r >= n || !alive[r]) continue;
        if (!replica_complete || replica_complete(b, r)) {
          intact.push_back(r);
        } else {
          stale.push_back(r);
        }
      }
      if (intact.empty()) continue;  // no intact source; block lost for now
      if (static_cast<int>(intact.size()) >= want) continue;

      // Repair targets: stale replicas first (catch-up in place keeps the
      // placement), then live nodes not yet hosting the block.
      std::vector<int> candidates = stale;
      for (int i = 0; i < n; i++) {
        if (alive[i] &&
            std::find(b.replicas.begin(), b.replicas.end(), i) ==
                b.replicas.end()) {
          candidates.push_back(i);
        }
      }
      int missing = want - static_cast<int>(intact.size());
      for (int k = 0; k < missing && !candidates.empty(); k++) {
        size_t pick = candidates.size();
        if (static_cast<size_t>(k) < stale.size()) {
          pick = 0;  // deterministic: stale replicas repair first
        } else {
          pick = rnd_.Uniform(candidates.size());
        }
        int target = candidates[pick];
        candidates.erase(candidates.begin() + static_cast<long>(pick));
        tasks.push_back(RereplicationTask{path, b.id, intact[0], target});
      }
    }
  }
  return tasks;
}

Status NameNode::AddReplica(const std::string& path, BlockId block, int node) {
  MutexLock l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  for (BlockInfo& b : it->second.blocks) {
    if (b.id == block) {
      if (std::find(b.replicas.begin(), b.replicas.end(), node) ==
          b.replicas.end()) {
        b.replicas.push_back(node);
      }
      return Status::OK();
    }
  }
  return Status::NotFound("block not in file");
}

}  // namespace logbase::dfs

#include "src/dfs/data_node.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace logbase::dfs {

namespace {

obs::Counter* PreadBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.pread.bytes");
  return c;
}

obs::Counter* InjectedIoErrors() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.injected.disk_errors");
  return c;
}

}  // namespace

void BlockBytes::WriteAt(uint64_t offset, const Slice& data) {
  MutexLock l(mu_);
  if (offset < size_) {
    // Drop the bytes at and past `offset`.
    chunks_.resize((offset + kChunkBytes - 1) / kChunkBytes);
    if (!chunks_.empty()) {
      chunks_.back().resize(offset - (chunks_.size() - 1) * kChunkBytes);
    }
    size_ = offset;
  }
  const char* p = data.data();
  uint64_t left = data.size();
  while (left > 0) {
    if (chunks_.empty() || chunks_.back().size() == kChunkBytes) {
      chunks_.emplace_back();
    }
    std::string& chunk = chunks_.back();
    uint64_t take = std::min<uint64_t>(left, kChunkBytes - chunk.size());
    if (chunk.size() + take > chunk.capacity()) {
      // A block's first write is sized exactly, so a small file stays
      // small; past that a chunk is allocated whole, as growing it in steps
      // leaves holes in the heap that other allocations fit poorly.
      chunk.reserve(chunks_.size() == 1 && chunk.empty() ? take : kChunkBytes);
    }
    chunk.append(p, take);
    p += take;
    left -= take;
  }
  size_ += data.size();
}

void BlockBytes::CopyTo(uint64_t offset, uint64_t n, std::string* out) const {
  MutexLock l(mu_);
  out->reserve(out->size() + n);
  for (size_t i = offset / kChunkBytes; n > 0; i++) {
    uint64_t at = offset % kChunkBytes;
    uint64_t take = std::min<uint64_t>(n, chunks_[i].size() - at);
    out->append(chunks_[i], at, take);
    offset += take;
    n -= take;
  }
}

uint64_t BlockBytes::size() const {
  MutexLock l(mu_);
  return size_;
}

bool DataNode::ConsumeInjectedError() const {
  int pending = injected_io_errors_.load(std::memory_order_relaxed);
  while (pending > 0) {
    if (injected_io_errors_.compare_exchange_weak(pending, pending - 1,
                                                  std::memory_order_relaxed)) {
      InjectedIoErrors()->Add();
      return true;
    }
  }
  return false;
}

DataNode::DataNode(int id, sim::DiskParams disk_params)
    : id_(id), disk_("disk-" + std::to_string(id), disk_params) {}

Status DataNode::StoreBlockData(BlockId block,
                                std::shared_ptr<const BlockBytes> bytes,
                                uint64_t offset, uint64_t length) {
  if (!alive()) return Status::Unavailable("data node is down");
  if (ConsumeInjectedError()) return Status::IOError("injected disk fault");
  MutexLock l(mu_);
  Replica& replica = blocks_[block];
  if (offset != replica.size) {
    return Status::InvalidArgument("non-contiguous block append");
  }
  replica.bytes = std::move(bytes);
  replica.size = length;
  return Status::OK();
}

Result<std::string> DataNode::ReadBlock(BlockId block, uint64_t offset,
                                        uint64_t n) const {
  obs::Span span("dfs.pread");
  if (!alive()) return Status::Unavailable("data node is down");
  if (ConsumeInjectedError()) return Status::IOError("injected disk fault");
  std::string out;
  {
    MutexLock l(mu_);
    auto it = blocks_.find(block);
    if (it == blocks_.end()) return Status::NotFound("block not on this node");
    const Replica& replica = it->second;
    if (offset < replica.size) {
      replica.bytes->CopyTo(
          offset, std::min<uint64_t>(n, replica.size - offset), &out);
    }
  }
  disk_.Access(block, offset, out.size());
  PreadBytes()->Add(out.size());
  return out;
}

Status DataNode::DeleteBlock(BlockId block) {
  MutexLock l(mu_);
  blocks_.erase(block);
  return Status::OK();
}

bool DataNode::HasBlock(BlockId block) const {
  MutexLock l(mu_);
  return blocks_.count(block) > 0;
}

Result<uint64_t> DataNode::BlockSize(BlockId block) const {
  MutexLock l(mu_);
  auto it = blocks_.find(block);
  if (it == blocks_.end()) return Status::NotFound("block not on this node");
  return it->second.size;
}

std::shared_ptr<const BlockBytes> DataNode::SharedBytes(BlockId block) const {
  MutexLock l(mu_);
  auto it = blocks_.find(block);
  return it == blocks_.end() ? nullptr : it->second.bytes;
}

std::vector<BlockId> DataNode::ListBlocks() const {
  MutexLock l(mu_);
  std::vector<BlockId> ids;
  ids.reserve(blocks_.size());
  for (const auto& [id, data] : blocks_) ids.push_back(id);
  return ids;
}

uint64_t DataNode::used_bytes() const {
  MutexLock l(mu_);
  uint64_t total = 0;
  for (const auto& [id, data] : blocks_) total += data.size;
  return total;
}

}  // namespace logbase::dfs

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

obs::Counter* WriteBytes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("dfs.write.bytes");
  return c;
}

obs::Counter* InjectedIoErrors() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.injected.disk_errors");
  return c;
}

}  // namespace

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

Status DataNode::StoreBlockData(BlockId block, uint64_t offset,
                                std::shared_ptr<const std::string> data) {
  if (!alive()) return Status::Unavailable("data node is down");
  if (ConsumeInjectedError()) return Status::IOError("injected disk fault");
  MutexLock l(mu_);
  StoredBlock& stored = blocks_[block];
  if (offset != stored.size) {
    return Status::InvalidArgument("non-contiguous block append");
  }
  if (data->empty()) return Status::OK();
  stored.size += data->size();
  stored.starts.push_back(offset);
  stored.pieces.push_back(std::move(data));
  return Status::OK();
}

Status DataNode::WriteBlock(BlockId block, uint64_t offset,
                            const Slice& data) {
  obs::Span span("dfs.write");
  LOGBASE_RETURN_NOT_OK(StoreBlockData(
      block, offset,
      std::make_shared<const std::string>(data.data(), data.size())));
  WriteBytes()->Add(data.size());
  disk_.Access(block, offset, data.size(), /*is_write=*/true);
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
    const StoredBlock& stored = it->second;
    if (offset < stored.size) {
      uint64_t left = std::min<uint64_t>(n, stored.size - offset);
      out.reserve(left);
      // The piece holding `offset`, then its successors.
      size_t i = std::upper_bound(stored.starts.begin(), stored.starts.end(),
                                  offset) -
                 stored.starts.begin() - 1;
      for (uint64_t at = offset - stored.starts[i]; left > 0; i++, at = 0) {
        const std::string& piece = *stored.pieces[i];
        uint64_t take = std::min<uint64_t>(left, piece.size() - at);
        out.append(piece, at, take);
        left -= take;
      }
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

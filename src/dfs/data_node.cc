#include "src/dfs/data_node.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

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

[[noreturn]] void HostIoFailed(const char* what) {
  std::fprintf(stderr, "dfs chunk file: %s failed: %s\n", what,
               std::strerror(errno));
  std::abort();
}

int CreateUnlinkedFile() {
  std::string path =
      (std::filesystem::temp_directory_path() / "logbase-dfs-XXXXXX").string();
  int fd = ::mkstemp(path.data());
  if (fd < 0) HostIoFailed("mkstemp");
  ::unlink(path.c_str());
  return fd;
}

}  // namespace

ChunkFile::ChunkFile() : fd_(CreateUnlinkedFile()) {}

ChunkFile::~ChunkFile() { ::close(fd_); }

uint64_t ChunkFile::Write(const char* chunk) {
  uint64_t slot;
  {
    MutexLock l(mu_);
    if (free_.empty()) {
      slot = slots_++;
    } else {
      slot = free_.back();
      free_.pop_back();
    }
  }
  const off_t at = static_cast<off_t>(slot * kChunkBytes);
  if (::pwrite(fd_, chunk, kChunkBytes, at) !=
      static_cast<ssize_t>(kChunkBytes)) {
    HostIoFailed("pwrite");
  }
  return slot;
}

void ChunkFile::Read(uint64_t slot, uint64_t at, uint64_t n, char* out) const {
  if (::pread(fd_, out, n, static_cast<off_t>(slot * kChunkBytes + at)) !=
      static_cast<ssize_t>(n)) {
    HostIoFailed("pread");
  }
}

void ChunkFile::Free(uint64_t slot) {
  MutexLock l(mu_);
  free_.push_back(slot);
}

uint64_t ChunkFile::slot_count() const {
  MutexLock l(mu_);
  return slots_;
}

BlockBytes::~BlockBytes() {
  for (uint64_t slot : slots_) file_->Free(slot);
}

void BlockBytes::WriteAt(uint64_t offset, const Slice& data) {
  MutexLock l(mu_);
  if (offset < slots_.size() * kChunkBytes + tail_.size()) {
    // Drop the bytes at and past `offset`. When they start inside a chunk
    // already in the file, its kept prefix comes back as the tail.
    const size_t keep = offset / kChunkBytes;
    const uint64_t at = offset % kChunkBytes;
    tail_.resize(at);
    if (keep < slots_.size()) {
      if (at > 0) file_->Read(slots_[keep], 0, at, tail_.data());
      for (size_t i = keep; i < slots_.size(); i++) file_->Free(slots_[i]);
      slots_.resize(keep);
    }
  }
  const char* p = data.data();
  uint64_t left = data.size();
  while (left > 0) {
    if (tail_.empty() && left >= kChunkBytes) {
      slots_.push_back(file_->Write(p));
      p += kChunkBytes;
      left -= kChunkBytes;
      continue;
    }
    uint64_t take = std::min<uint64_t>(left, kChunkBytes - tail_.size());
    if (tail_.size() + take > tail_.capacity()) {
      // A block's first write is sized exactly, so a small file stays
      // small; past that the tail is allocated whole, as growing it in
      // steps leaves holes in the heap that other allocations fit poorly.
      tail_.reserve(slots_.empty() && tail_.empty() ? take : kChunkBytes);
    }
    tail_.append(p, take);
    p += take;
    left -= take;
    if (tail_.size() == kChunkBytes) {
      slots_.push_back(file_->Write(tail_.data()));
      tail_.clear();
    }
  }
}

void BlockBytes::CopyTo(uint64_t offset, uint64_t n, std::string* out) const {
  MutexLock l(mu_);
  size_t pos = out->size();
  out->resize(pos + n);
  while (n > 0) {
    size_t i = offset / kChunkBytes;
    const uint64_t at = offset % kChunkBytes;
    uint64_t take;
    if (i < slots_.size()) {
      // One read for each run of chunks in consecutive slots.
      size_t end = i + 1;
      while (end < slots_.size() && slots_[end] == slots_[end - 1] + 1) end++;
      take = std::min<uint64_t>(n, (end - i) * kChunkBytes - at);
      file_->Read(slots_[i], at, take, out->data() + pos);
    } else {
      take = n;
      std::memcpy(out->data() + pos, tail_.data() + at, take);
    }
    offset += take;
    pos += take;
    n -= take;
  }
}

uint64_t BlockBytes::size() const {
  MutexLock l(mu_);
  return slots_.size() * kChunkBytes + tail_.size();
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

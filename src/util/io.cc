#include "src/util/io.h"

#include <atomic>

#include "src/sim/sim_context.h"

namespace logbase {

Status WritableFile::SyncWith(AckMode ack, uint64_t* ack_us) {
  (void)ack;
  LOGBASE_RETURN_NOT_OK(Sync());
  if (ack_us != nullptr) {
    sim::SimContext* ctx = sim::SimContext::Current();
    *ack_us = ctx != nullptr ? ctx->now() : 0;
  }
  return Status::OK();
}

namespace {

class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<OrderedMutex> mu, std::string* data)
      : mu_(std::move(mu)), data_(data) {}

  Status Append(const Slice& slice) override {
    MutexLock l(*mu_);
    data_->append(slice.data(), slice.size());
    size_.store(data_->size(), std::memory_order_release);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
  uint64_t Size() const override {
    return size_.load(std::memory_order_acquire);
  }

 private:
  // data_ aliases MemFile::data and is only touched under *mu_ (the owning
  // MemFile's lock); the aliasing is invisible to the thread-safety
  // analysis, which sees only raw-pointer dereferences here.
  std::shared_ptr<OrderedMutex> mu_;
  std::string* data_;
  // Atomic so the lock-free Size() fast path never tears against Append.
  std::atomic<uint64_t> size_{0};
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  MemRandomAccessFile(std::shared_ptr<OrderedMutex> mu, const std::string* data)
      : mu_(std::move(mu)), data_(data) {}

  Result<std::string> Read(uint64_t offset, size_t n) const override {
    MutexLock l(*mu_);
    if (offset >= data_->size()) return std::string();
    size_t avail = data_->size() - offset;
    return data_->substr(offset, std::min(n, avail));
  }
  uint64_t Size() const override {
    MutexLock l(*mu_);
    return data_->size();
  }

 private:
  std::shared_ptr<OrderedMutex> mu_;
  const std::string* data_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> MemFileSystem::NewWritableFile(
    const std::string& path) {
  MutexLock l(mu_);
  auto file = std::make_shared<MemFile>();
  files_[path] = file;
  // Alias the file's mutex and data; shared_ptr keeps MemFile alive even if
  // the path is later deleted or replaced.
  auto mu = std::shared_ptr<OrderedMutex>(file, &file->mu);
  return std::unique_ptr<WritableFile>(
      new MemWritableFile(std::move(mu), &file->data));
}

Result<std::unique_ptr<RandomAccessFile>> MemFileSystem::NewRandomAccessFile(
    const std::string& path) {
  MutexLock l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(path);
  }
  auto file = it->second;
  auto mu = std::shared_ptr<OrderedMutex>(file, &file->mu);
  return std::unique_ptr<RandomAccessFile>(
      new MemRandomAccessFile(std::move(mu), &file->data));
}

Status MemFileSystem::DeleteFile(const std::string& path) {
  MutexLock l(mu_);
  if (files_.erase(path) == 0) return Status::NotFound(path);
  return Status::OK();
}

Status MemFileSystem::Rename(const std::string& from, const std::string& to) {
  MutexLock l(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound(from);
  files_[to] = it->second;
  files_.erase(it);
  return Status::OK();
}

bool MemFileSystem::Exists(const std::string& path) {
  MutexLock l(mu_);
  return files_.count(path) > 0;
}

Result<uint64_t> MemFileSystem::FileSize(const std::string& path) {
  MutexLock l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  MutexLock fl(it->second->mu);
  return static_cast<uint64_t>(it->second->data.size());
}

Result<std::vector<std::string>> MemFileSystem::List(
    const std::string& prefix) {
  MutexLock l(mu_);
  std::vector<std::string> names;
  for (const auto& [path, file] : files_) {
    if (Slice(path).starts_with(prefix)) names.push_back(path);
  }
  return names;
}

}  // namespace logbase

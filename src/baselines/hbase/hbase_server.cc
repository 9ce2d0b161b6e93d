#include "src/baselines/hbase/hbase_server.h"

#include <algorithm>

#include "src/log/log_reader.h"
#include "src/util/coding.h"
#include "src/util/logging.h"

namespace logbase::baselines::hbase {

namespace {
constexpr uint32_t kTimestampBatch = 4096;
}  // namespace

HBaseServer::HBaseServer(HBaseServerOptions options, dfs::Dfs* dfs,
                         coord::CoordinationService* coord)
    : options_(std::move(options)), dfs_(dfs), coord_(coord) {
  fs_ = std::make_unique<dfs::DfsFileSystem>(dfs_, options_.server_id);
  if (options_.block_cache_bytes > 0) {
    block_cache_ =
        std::make_unique<sstable::BlockCache>(options_.block_cache_bytes);
  }
  options_.table.enable_bloom = false;  // HBase 0.90 default
  wal_ = std::make_unique<log::LogWriter>(fs_.get(), root() + "/wal",
                                          options_.server_id,
                                          options_.segment_bytes);
}

HBaseServer::~HBaseServer() = default;

uint64_t HBaseServer::NextTimestamp() {
  MutexLock l(ts_mu_);
  if (ts_next_ >= ts_limit_) {
    ts_next_ = coord_->ReserveTimestamps(options_.server_id, kTimestampBatch);
    ts_limit_ = ts_next_ + kTimestampBatch;
  }
  return ts_next_++;
}

Status HBaseServer::LoadRegistryLocked() {
  if (registry_loaded_) return Status::OK();
  registry_loaded_ = true;
  std::string path = root() + "/TABLETS";
  if (!fs_->Exists(path)) return Status::OK();
  auto file = fs_->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  auto contents = (*file)->Read(0, (*file)->Size());
  if (!contents.ok()) return contents.status();
  Slice in(*contents);
  uint32_t count;
  if (!GetVarint32(&in, &count)) return Status::Corruption("bad registry");
  for (uint32_t i = 0; i < count; i++) {
    Slice uid;
    uint32_t id;
    if (!GetLengthPrefixedSlice(&in, &uid) || !GetFixed32(&in, &id)) {
      return Status::Corruption("bad registry entry");
    }
    registry_[uid.ToString()] = id;
    next_numeric_id_ = std::max(next_numeric_id_, id + 1);
  }
  return Status::OK();
}

Status HBaseServer::SaveRegistryLocked() {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(registry_.size()));
  for (const auto& [uid, id] : registry_) {
    PutLengthPrefixedSlice(&out, Slice(uid));
    PutFixed32(&out, id);
  }
  std::string path = root() + "/TABLETS";
  std::string tmp = path + ".tmp";
  auto file = fs_->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  LOGBASE_RETURN_NOT_OK((*file)->Append(Slice(out)));
  LOGBASE_RETURN_NOT_OK((*file)->Sync());
  LOGBASE_RETURN_NOT_OK((*file)->Close());
  return fs_->Rename(tmp, path);
}

Status HBaseServer::OpenTablet(const std::string& uid) {
  MutexLock l(tablets_mu_);
  if (tablets_.count(uid) > 0) return Status::OK();
  LOGBASE_RETURN_NOT_OK(LoadRegistryLocked());
  HTabletOptions tablet_options;
  tablet_options.memtable_flush_bytes = options_.memtable_flush_bytes;
  tablet_options.compaction_trigger = options_.compaction_trigger;
  tablet_options.table = options_.table;
  tablet_options.block_cache = block_cache_.get();
  uint32_t numeric_id;
  auto registered = registry_.find(uid);
  if (registered != registry_.end()) {
    numeric_id = registered->second;
  } else {
    numeric_id = next_numeric_id_++;
    registry_[uid] = numeric_id;
    LOGBASE_RETURN_NOT_OK(SaveRegistryLocked());
  }
  auto tablet = std::make_unique<HTablet>(uid, numeric_id, tablet_options,
                                          fs_.get(), wal_.get(),
                                          root() + "/tablets/" + uid);
  LOGBASE_RETURN_NOT_OK(tablet->Open());
  by_numeric_id_[numeric_id] = tablet.get();
  tablets_[uid] = std::move(tablet);
  return Status::OK();
}

Status HBaseServer::ReplayWal() {
  // Replay from the oldest unflushed position across tablets.
  log::LogPosition start{~0u, ~0ull};
  {
    MutexLock l(tablets_mu_);
    if (tablets_.empty()) return Status::OK();
    for (const auto& [uid, tablet] : tablets_) {
      log::LogPosition flushed = tablet->flushed_position();
      if (flushed < start) start = flushed;
    }
  }
  log::LogReader reader(fs_.get(), root() + "/wal");
  auto scanner = reader.NewScanner(start);
  if (!scanner.ok()) return scanner.status();
  uint64_t replayed = 0;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    const log::LogRecord& record = (*scanner)->record();
    HTablet* tablet = nullptr;
    {
      MutexLock l(tablets_mu_);
      auto it = by_numeric_id_.find(record.key.table_id);
      if (it != by_numeric_id_.end()) tablet = it->second;
    }
    if (tablet == nullptr) continue;
    // Skip entries already covered by this tablet's store files.
    if ((*scanner)->ptr().segment < tablet->flushed_position().segment ||
        ((*scanner)->ptr().segment == tablet->flushed_position().segment &&
         (*scanner)->ptr().offset < tablet->flushed_position().offset)) {
      continue;
    }
    tablet->ApplyRecovered(
        Slice(record.row.primary_key), record.row.timestamp,
        record.type == log::LogRecordType::kInvalidate,
        Slice(record.value));
    replayed++;
  }
  LOGBASE_RETURN_NOT_OK((*scanner)->status());
  LOGBASE_LOG(kInfo, "hbase server %d replayed %llu WAL records",
              options_.server_id, static_cast<unsigned long long>(replayed));
  return Status::OK();
}

Status HBaseServer::Start() {
  if (running_) return Status::InvalidArgument("server already running");
  LOGBASE_RETURN_NOT_OK(ReplayWal());
  LOGBASE_RETURN_NOT_OK(wal_->Open());
  running_ = true;
  return Status::OK();
}

Status HBaseServer::Stop() {
  if (!running_) return Status::OK();
  LOGBASE_RETURN_NOT_OK(FlushAll());
  running_ = false;
  return Status::OK();
}

void HBaseServer::Crash() {
  running_ = false;
  MutexLock l(tablets_mu_);
  // Memtables are lost; store files, META, the tablet registry and the WAL
  // survive in the DFS. OpenTablet + Start (which replays the WAL) restores
  // service.
  tablets_.clear();
  by_numeric_id_.clear();
  registry_.clear();
  registry_loaded_ = false;
  next_numeric_id_ = 1;
}

HTablet* HBaseServer::FindTablet(const std::string& uid) {
  MutexLock l(tablets_mu_);
  auto it = tablets_.find(uid);
  return it == tablets_.end() ? nullptr : it->second.get();
}

Result<HTablet*> HBaseServer::LiveTablet(const std::string& uid) {
  if (!running_) return Status::Unavailable("hbase server is down");
  HTablet* tablet = FindTablet(uid);
  if (tablet == nullptr) return Status::NotFound("unknown tablet");
  return tablet;
}

Status HBaseServer::Put(const std::string& uid, const Slice& key,
                        const Slice& value) {
  LOGBASE_ASSIGN_OR_RETURN(HTablet* tablet, LiveTablet(uid));
  return tablet->Put(key, NextTimestamp(), value);
}

Status HBaseServer::PutBatch(
    const std::string& uid,
    const std::vector<std::pair<std::string, std::string>>& kvs) {
  LOGBASE_ASSIGN_OR_RETURN(HTablet* tablet, LiveTablet(uid));
  std::vector<uint64_t> timestamps;
  timestamps.reserve(kvs.size());
  for (size_t i = 0; i < kvs.size(); i++) timestamps.push_back(NextTimestamp());
  return tablet->PutBatch(kvs, timestamps);
}

Result<tablet::ReadValue> HBaseServer::Get(const std::string& uid,
                                           const Slice& key) {
  LOGBASE_ASSIGN_OR_RETURN(HTablet* tablet, LiveTablet(uid));
  return tablet->Get(key);
}

Status HBaseServer::Delete(const std::string& uid, const Slice& key) {
  LOGBASE_ASSIGN_OR_RETURN(HTablet* tablet, LiveTablet(uid));
  return tablet->Delete(key, NextTimestamp());
}

Result<std::vector<tablet::ReadRow>> HBaseServer::Scan(
    const std::string& uid, const Slice& start_key, const Slice& end_key) {
  LOGBASE_ASSIGN_OR_RETURN(HTablet* tablet, LiveTablet(uid));
  return tablet->Scan(start_key, end_key);
}

Status HBaseServer::FlushAll() {
  std::vector<HTablet*> tablets;
  {
    MutexLock l(tablets_mu_);
    for (auto& [uid, tablet] : tablets_) tablets.push_back(tablet.get());
  }
  for (HTablet* tablet : tablets) {
    LOGBASE_RETURN_NOT_OK(tablet->Flush());
  }
  return Status::OK();
}

Status HBaseServer::CompactAll() {
  std::vector<HTablet*> tablets;
  {
    MutexLock l(tablets_mu_);
    for (auto& [uid, tablet] : tablets_) tablets.push_back(tablet.get());
  }
  for (HTablet* tablet : tablets) {
    LOGBASE_RETURN_NOT_OK(tablet->CompactStores());
  }
  return Status::OK();
}

}  // namespace logbase::baselines::hbase

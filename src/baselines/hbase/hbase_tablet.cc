#include "src/baselines/hbase/hbase_tablet.h"

#include <algorithm>
#include <cstdio>

#include "src/index/multiversion_index.h"
#include "src/lsm/merging_iterator.h"
#include "src/sstable/table_builder.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace logbase::baselines::hbase {

namespace {
constexpr uint64_t kMetaMagic = 0x4842415345ull;  // "HBASE"
}  // namespace

HTablet::HTablet(std::string uid, uint32_t numeric_id, HTabletOptions options,
                 FileSystem* fs, log::LogWriter* wal, std::string dir)
    : uid_(std::move(uid)),
      numeric_id_(numeric_id),
      options_(std::move(options)),
      fs_(fs),
      wal_(wal),
      dir_(std::move(dir)),
      mem_(std::make_unique<HMemTable>()) {}

std::string HTablet::StoreFileName(uint64_t number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/sf_%06llu.sst",
                static_cast<unsigned long long>(number));
  return dir_ + buf;
}

Status HTablet::SaveMeta() {
  std::string meta;
  PutFixed64(&meta, kMetaMagic);
  PutFixed32(&meta, numeric_id_);
  PutFixed32(&meta, flushed_position_.segment);
  PutFixed64(&meta, flushed_position_.offset);
  PutFixed64(&meta, next_file_number_);
  PutVarint32(&meta, static_cast<uint32_t>(stores_.size()));
  for (const StoreFile& sf : stores_) {
    PutVarint64(&meta, sf.number);
    PutVarint64(&meta, sf.size);
  }
  PutFixed32(&meta, crc32c::Mask(crc32c::Value(meta.data(), meta.size())));
  std::string tmp = MetaPath() + ".tmp";
  auto file = fs_->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  LOGBASE_RETURN_NOT_OK((*file)->Append(Slice(meta)));
  LOGBASE_RETURN_NOT_OK((*file)->Sync());
  LOGBASE_RETURN_NOT_OK((*file)->Close());
  return fs_->Rename(tmp, MetaPath());
}

Status HTablet::Open() {
  MutexLock l(mu_);
  if (!fs_->Exists(MetaPath())) return Status::OK();  // fresh tablet
  auto file = fs_->NewRandomAccessFile(MetaPath());
  if (!file.ok()) return file.status();
  auto contents = (*file)->Read(0, (*file)->Size());
  if (!contents.ok()) return contents.status();
  if (contents->size() < 4) return Status::Corruption("META too short");
  uint32_t stored =
      crc32c::Unmask(DecodeFixed32(contents->data() + contents->size() - 4));
  if (stored != crc32c::Value(contents->data(), contents->size() - 4)) {
    return Status::Corruption("META checksum mismatch");
  }
  Slice in(contents->data(), contents->size() - 4);
  uint64_t magic;
  uint32_t numeric_id;
  uint32_t count;
  if (!GetFixed64(&in, &magic) || magic != kMetaMagic ||
      !GetFixed32(&in, &numeric_id) ||
      !GetFixed32(&in, &flushed_position_.segment) ||
      !GetFixed64(&in, &flushed_position_.offset) ||
      !GetFixed64(&in, &next_file_number_) || !GetVarint32(&in, &count)) {
    return Status::Corruption("bad META header");
  }
  stores_.clear();
  for (uint32_t i = 0; i < count; i++) {
    StoreFile sf;
    if (!GetVarint64(&in, &sf.number) || !GetVarint64(&in, &sf.size)) {
      return Status::Corruption("bad META store entry");
    }
    auto raf = fs_->NewRandomAccessFile(StoreFileName(sf.number));
    if (!raf.ok()) return raf.status();
    auto reader = sstable::TableReader::Open(options_.table, std::move(*raf),
                                             options_.block_cache);
    if (!reader.ok()) return reader.status();
    sf.table = std::shared_ptr<sstable::TableReader>(std::move(*reader));
    stores_.push_back(std::move(sf));
  }
  return Status::OK();
}

Status HTablet::Put(const Slice& key, uint64_t timestamp,
                    const Slice& value) {
  // WAL first (write-ahead), then the memtable: the WAL+Data double write.
  log::LogRecord record;
  record.type = log::LogRecordType::kData;
  record.key.table_id = numeric_id_;
  record.row.primary_key = key.ToString();
  record.row.timestamp = timestamp;
  record.value = value.ToString();
  record.commit_ts = timestamp;
  auto ptr = wal_->Append(std::move(record));
  if (!ptr.ok()) return ptr.status();

  MutexLock l(mu_);
  mem_->Add(key, timestamp, /*is_delete=*/false, value);
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_flush_bytes) {
    l.unlock();
    // The writer stalls here until the flush (and any triggered compaction)
    // completes — the behaviour the paper's Figure 12/13 discussion calls
    // out for WAL+Data engines.
    LOGBASE_RETURN_NOT_OK(Flush());
  }
  return Status::OK();
}

Status HTablet::PutBatch(
    const std::vector<std::pair<std::string, std::string>>& kvs,
    const std::vector<uint64_t>& timestamps) {
  std::vector<log::LogRecord> records;
  records.reserve(kvs.size());
  for (size_t i = 0; i < kvs.size(); i++) {
    log::LogRecord record;
    record.type = log::LogRecordType::kData;
    record.key.table_id = numeric_id_;
    record.row.primary_key = kvs[i].first;
    record.row.timestamp = timestamps[i];
    record.value = kvs[i].second;
    record.commit_ts = timestamps[i];
    records.push_back(std::move(record));
  }
  std::vector<log::LogPtr> ptrs;
  LOGBASE_RETURN_NOT_OK(wal_->AppendBatch(&records, &ptrs));

  MutexLock l(mu_);
  for (size_t i = 0; i < kvs.size(); i++) {
    mem_->Add(Slice(kvs[i].first), timestamps[i], /*is_delete=*/false,
              Slice(kvs[i].second));
  }
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_flush_bytes) {
    l.unlock();
    LOGBASE_RETURN_NOT_OK(Flush());
  }
  return Status::OK();
}

Status HTablet::Delete(const Slice& key, uint64_t timestamp) {
  log::LogRecord record;
  record.type = log::LogRecordType::kInvalidate;
  record.key.table_id = numeric_id_;
  record.row.primary_key = key.ToString();
  record.row.timestamp = timestamp;
  auto ptr = wal_->Append(std::move(record));
  if (!ptr.ok()) return ptr.status();
  MutexLock l(mu_);
  mem_->Add(key, timestamp, /*is_delete=*/true, Slice());
  return Status::OK();
}

void HTablet::ApplyRecovered(const Slice& key, uint64_t timestamp,
                             bool is_delete, const Slice& value) {
  MutexLock l(mu_);
  mem_->Add(key, timestamp, is_delete, value);
}

Result<tablet::ReadValue> HTablet::Get(const Slice& key, uint64_t as_of) {
  {
    MutexLock l(mu_);
    bool is_delete;
    uint64_t ts;
    std::string value;
    if (mem_->Get(key, as_of, &is_delete, &ts, &value)) {
      if (is_delete) return Status::NotFound("deleted");
      return tablet::ReadValue{ts, std::move(value)};
    }
  }
  // Check store files newest -> oldest: each probe seeks the file's block
  // index and reads one data block (unless cached).
  std::vector<StoreFile> stores;
  {
    MutexLock l(mu_);
    stores = stores_;
  }
  std::string target = index::EncodeCompositeKey(key, as_of);
  for (const StoreFile& sf : stores) {
    std::string found_composite, cell;
    Status s = sf.table->SeekFirstGE(Slice(target), &found_composite, &cell);
    if (s.IsNotFound()) continue;
    LOGBASE_RETURN_NOT_OK(s);
    std::string found_key;
    uint64_t found_ts;
    if (!index::DecodeCompositeKey(Slice(found_composite), &found_key,
                                   &found_ts)) {
      return Status::Corruption("bad store file key");
    }
    if (Slice(found_key) != key) continue;
    bool is_delete;
    Slice value;
    if (!DecodeCell(Slice(cell), &is_delete, &value)) {
      return Status::Corruption("bad store file cell");
    }
    if (is_delete) return Status::NotFound("deleted");
    return tablet::ReadValue{found_ts, value.ToString()};
  }
  return Status::NotFound("key not in tablet");
}

Result<std::vector<tablet::ReadRow>> HTablet::Scan(const Slice& start_key,
                                                   const Slice& end_key,
                                                   uint64_t as_of) {
  std::vector<std::unique_ptr<KvIterator>> children;
  {
    MutexLock l(mu_);
    children.push_back(mem_->NewIterator());
    for (const StoreFile& sf : stores_) {
      children.push_back(sf.table->NewIterator());
    }
  }
  lsm::MergingIterator merged(BytewiseComparator(), std::move(children));
  merged.Seek(Slice(index::EncodeCompositeKey(start_key, index::kLatest)));

  std::vector<tablet::ReadRow> rows;
  index::NewestVisible newest(as_of);
  std::string last_composite;
  for (; merged.Valid(); merged.Next()) {
    // Duplicates across memtable/files (same key+ts) collapse here.
    if (!last_composite.empty() && merged.key() == Slice(last_composite)) {
      continue;
    }
    last_composite = merged.key().ToString();
    std::string key;
    uint64_t ts;
    if (!index::DecodeCompositeKey(merged.key(), &key, &ts)) {
      return Status::Corruption("bad composite key in scan");
    }
    if (!end_key.empty() && Slice(key).compare(end_key) >= 0) break;
    if (!newest.Admit(Slice(key), ts)) continue;
    bool is_delete;
    Slice value;
    if (!DecodeCell(merged.value(), &is_delete, &value)) {
      return Status::Corruption("bad cell in scan");
    }
    if (is_delete) continue;  // newest visible version is a tombstone
    rows.push_back(tablet::ReadRow{key, ts, value.ToString()});
  }
  LOGBASE_RETURN_NOT_OK(merged.status());
  return rows;
}

Status HTablet::WriteStoreFile(KvIterator* iter, bool drop_tombstones,
                               StoreFile* out) {
  out->number = next_file_number_++;
  auto file = fs_->NewWritableFile(StoreFileName(out->number));
  if (!file.ok()) return file.status();
  sstable::TableBuilder builder(options_.table, file->get());

  std::string tombstoned_key;  // drop versions older than a tombstone
  bool have_tombstoned = false;
  std::string last_composite;
  for (; iter->Valid(); iter->Next()) {
    if (!last_composite.empty() && iter->key() == Slice(last_composite)) {
      continue;
    }
    last_composite = iter->key().ToString();
    if (drop_tombstones) {
      std::string key;
      uint64_t ts;
      if (!index::DecodeCompositeKey(iter->key(), &key, &ts)) {
        return Status::Corruption("bad composite key in flush");
      }
      if (have_tombstoned && key == tombstoned_key) continue;
      bool is_delete;
      Slice value;
      if (!DecodeCell(iter->value(), &is_delete, &value)) {
        return Status::Corruption("bad cell in flush");
      }
      if (is_delete) {
        tombstoned_key = key;
        have_tombstoned = true;
        continue;  // the tombstone and everything older disappear
      }
    }
    LOGBASE_RETURN_NOT_OK(builder.Add(iter->key(), iter->value()));
  }
  LOGBASE_RETURN_NOT_OK(iter->status());
  LOGBASE_RETURN_NOT_OK(builder.Finish());
  LOGBASE_RETURN_NOT_OK((*file)->Sync());
  LOGBASE_RETURN_NOT_OK((*file)->Close());
  out->size = builder.file_size();

  auto raf = fs_->NewRandomAccessFile(StoreFileName(out->number));
  if (!raf.ok()) return raf.status();
  auto reader = sstable::TableReader::Open(options_.table, std::move(*raf),
                                           options_.block_cache);
  if (!reader.ok()) return reader.status();
  out->table = std::shared_ptr<sstable::TableReader>(std::move(*reader));
  return Status::OK();
}

Status HTablet::Flush() {
  MutexLock l(mu_);
  if (mem_->num_entries() == 0) return Status::OK();
  // Record the WAL high-water mark covered by this flush *before* writing.
  log::LogPosition flushed_to = wal_->Position();
  auto iter = mem_->NewIterator();
  iter->SeekToFirst();
  StoreFile sf;
  LOGBASE_RETURN_NOT_OK(WriteStoreFile(iter.get(), /*drop_tombstones=*/false,
                                       &sf));
  stores_.insert(stores_.begin(), std::move(sf));  // newest first
  mem_ = std::make_unique<HMemTable>();
  flushed_position_ = flushed_to;
  LOGBASE_RETURN_NOT_OK(SaveMeta());

  if (static_cast<int>(stores_.size()) >= options_.compaction_trigger) {
    // Minor compaction inline (the write already stalled on the flush):
    // merge only the smallest few files, HBase-style, so write
    // amplification stays logarithmic rather than quadratic.
    return MinorCompactLocked_();
  }
  return Status::OK();
}

Status HTablet::MinorCompactLocked_() {
  // HBase-style tiered selection: take the longest newest-first contiguous
  // run where each file is no bigger than 1.2x the sum of the newer files
  // in the run. Merging only similar-sized tiers keeps write amplification
  // logarithmic; the run stays time-contiguous so newest-first shadowing is
  // preserved.
  constexpr double kRatio = 1.2;
  size_t count = 1;
  uint64_t newer_sum = stores_[0].size;
  while (count < stores_.size() &&
         static_cast<double>(stores_[count].size) <=
             kRatio * static_cast<double>(newer_sum)) {
    newer_sum += stores_[count].size;
    count++;
  }
  if (count < static_cast<size_t>(options_.compaction_trigger)) {
    return Status::OK();  // no similar-sized run worth merging yet
  }
  std::vector<std::unique_ptr<KvIterator>> children;
  for (size_t i = 0; i < count; i++) {
    children.push_back(stores_[i].table->NewIterator());
  }
  lsm::MergingIterator merged(BytewiseComparator(), std::move(children));
  merged.SeekToFirst();
  StoreFile sf;
  // Minor compactions keep tombstones: older files may still hold shadowed
  // cells.
  LOGBASE_RETURN_NOT_OK(
      WriteStoreFile(&merged, /*drop_tombstones=*/false, &sf));

  std::vector<StoreFile> replaced(stores_.begin(), stores_.begin() + count);
  stores_.erase(stores_.begin(), stores_.begin() + count);
  stores_.insert(stores_.begin(), std::move(sf));
  LOGBASE_RETURN_NOT_OK(SaveMeta());
  for (const StoreFile& dead : replaced) {
    // Replaced store files are unreferenced after SaveMeta(); a failed
    // delete only leaks space.
    (void)fs_->DeleteFile(StoreFileName(dead.number));
  }
  return Status::OK();
}

// Private continuation of Flush() with mu_ held; also the body of
// CompactStores().
Status HTablet::CompactStoresLockedAlreadyHeld_() {
  if (stores_.size() <= 1) return Status::OK();
  std::vector<std::unique_ptr<KvIterator>> children;
  for (const StoreFile& sf : stores_) {
    children.push_back(sf.table->NewIterator());
  }
  lsm::MergingIterator merged(BytewiseComparator(), std::move(children));
  merged.SeekToFirst();
  StoreFile sf;
  LOGBASE_RETURN_NOT_OK(
      WriteStoreFile(&merged, /*drop_tombstones=*/true, &sf));
  std::vector<StoreFile> old = std::move(stores_);
  stores_.clear();
  stores_.push_back(std::move(sf));
  LOGBASE_RETURN_NOT_OK(SaveMeta());
  for (const StoreFile& dead : old) {
    (void)fs_->DeleteFile(StoreFileName(dead.number));
  }
  LOGBASE_LOG(kDebug, "hbase tablet %s compacted %zu store files",
              uid_.c_str(), old.size());
  return Status::OK();
}

Status HTablet::CompactStores() {
  MutexLock l(mu_);
  return CompactStoresLockedAlreadyHeld_();
}

log::LogPosition HTablet::flushed_position() const {
  MutexLock l(mu_);
  return flushed_position_;
}

size_t HTablet::memtable_bytes() const {
  MutexLock l(mu_);
  return mem_->ApproximateMemoryUsage();
}

int HTablet::num_store_files() const {
  MutexLock l(mu_);
  return static_cast<int>(stores_.size());
}

uint64_t HTablet::store_file_bytes() const {
  MutexLock l(mu_);
  uint64_t total = 0;
  for (const StoreFile& sf : stores_) total += sf.size;
  return total;
}

}  // namespace logbase::baselines::hbase

#include "src/lsm/lsm_tree.h"

#include <cstdio>

#include "src/lsm/merging_iterator.h"
#include "src/sim/costs.h"
#include "src/sstable/table_builder.h"
#include "src/util/logging.h"

namespace logbase::lsm {

namespace {
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestTmpName = "MANIFEST.tmp";
constexpr int kNumLevels = 7;
}  // namespace

LsmTree::LsmTree(LsmOptions options, FileSystem* fs, std::string dir)
    : options_(std::move(options)),
      fs_(fs),
      dir_(std::move(dir)),
      internal_comparator_(options_.table.comparator) {
  internal_table_options_ = options_.table;
  internal_table_options_.comparator = &internal_comparator_;
  // All versions of a user key share one bloom entry.
  internal_table_options_.filter_key_extractor = [](const Slice& ikey) {
    return ExtractUserKey(ikey);
  };
  mem_ = std::make_shared<MemTable>(&internal_comparator_);
  versions_ = std::make_unique<VersionSet>(&internal_comparator_,
                                           kNumLevels);
}

LsmTree::~LsmTree() = default;

Result<std::unique_ptr<LsmTree>> LsmTree::Open(LsmOptions options,
                                               FileSystem* fs,
                                               std::string dir) {
  std::unique_ptr<LsmTree> tree(
      new LsmTree(std::move(options), fs, std::move(dir)));
  if (fs->Exists(tree->dir_ + "/" + kManifestName)) {
    LOGBASE_RETURN_NOT_OK(tree->LoadManifest());
  }
  return tree;
}

std::string LsmTree::TableFileName(uint64_t number) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%06llu.sst",
                static_cast<unsigned long long>(number));
  return dir_ + buf;
}

Status LsmTree::Put(const Slice& key, const Slice& value) {
  return WriteEntry(ValueType::kValue, key, value);
}

Status LsmTree::Delete(const Slice& key) {
  return WriteEntry(ValueType::kDeletion, key, Slice());
}

Status LsmTree::WriteEntry(ValueType type, const Slice& key,
                           const Slice& value) {
  MutexLock l(write_mu_);
  uint64_t seq = sequence_.fetch_add(1, std::memory_order_acq_rel) + 1;
  mem_->Add(seq, type, key, value);
  sim::ChargeCpu(sim::costs::kIndexInsertUs);
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    // The write that fills the buffer pays for flush + compaction — the
    // stall the paper attributes to Memtable-based engines (§4.3).
    LOGBASE_RETURN_NOT_OK(FlushMemTableLocked());
    bool did_work = true;
    while (did_work) {
      LOGBASE_RETURN_NOT_OK(CompactOnce(&did_work));
    }
  }
  return Status::OK();
}

Status LsmTree::FlushMemTable() {
  MutexLock l(write_mu_);
  return FlushMemTableLocked();
}

Status LsmTree::FlushMemTableLocked() {
  if (mem_->num_entries() == 0) return Status::OK();
  auto iter = mem_->NewIterator();
  iter->SeekToFirst();
  std::vector<std::shared_ptr<FileMeta>> outputs;
  // A flush writes one run regardless of size and must keep every version:
  // shadowing is resolved against deeper levels at compaction time.
  uint64_t saved_max = ~0ull;
  {
    // Write all entries into a single L0 run.
    uint64_t number = next_file_number_.fetch_add(1);
    auto file = fs_->NewWritableFile(TableFileName(number));
    if (!file.ok()) return file.status();
    sstable::TableBuilder builder(internal_table_options_, file->get());
    std::string smallest, largest;
    for (; iter->Valid(); iter->Next()) {
      if (smallest.empty()) smallest = iter->key().ToString();
      largest = iter->key().ToString();
      LOGBASE_RETURN_NOT_OK(builder.Add(iter->key(), iter->value()));
    }
    LOGBASE_RETURN_NOT_OK(builder.Finish());
    LOGBASE_RETURN_NOT_OK((*file)->Sync());
    LOGBASE_RETURN_NOT_OK((*file)->Close());
    auto meta = OpenTableFile(number, builder.file_size());
    if (!meta.ok()) return meta.status();
    (*meta)->smallest = std::move(smallest);
    (*meta)->largest = std::move(largest);
    versions_->AddFile(0, std::move(*meta));
  }
  (void)saved_max;
  mem_ = std::make_shared<MemTable>(&internal_comparator_);
  return SaveManifest();
}

Result<std::shared_ptr<FileMeta>> LsmTree::OpenTableFile(uint64_t number,
                                                         uint64_t file_size) {
  auto file = fs_->NewRandomAccessFile(TableFileName(number));
  if (!file.ok()) return file.status();
  auto reader = sstable::TableReader::Open(
      internal_table_options_, std::move(*file), options_.block_cache);
  if (!reader.ok()) return reader.status();
  auto meta = std::make_shared<FileMeta>();
  meta->number = number;
  meta->file_size = file_size;
  meta->table = std::shared_ptr<sstable::TableReader>(std::move(*reader));
  return meta;
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

namespace {

/// Point lookup in one table: newest version of `user_key` with sequence <=
/// snapshot. Mirrors MemTable::Get.
LookupResult TableLookup(const sstable::TableReader& table,
                         const InternalKeyComparator& icmp,
                         const Slice& user_key, uint64_t snapshot,
                         std::string* value) {
  std::string target = MakeInternalKey(user_key, snapshot, ValueType::kValue);
  if (!table.MayContain(Slice(target))) return LookupResult::kNotPresent;
  auto iter = table.NewIterator();
  iter->Seek(Slice(target));
  if (!iter->Valid()) return LookupResult::kNotPresent;
  Slice found = iter->key();
  if (icmp.user_comparator()->Compare(ExtractUserKey(found), user_key) != 0) {
    return LookupResult::kNotPresent;
  }
  if (TagType(ExtractTag(found)) == ValueType::kDeletion) {
    return LookupResult::kDeleted;
  }
  *value = iter->value().ToString();
  return LookupResult::kFound;
}

}  // namespace

Result<std::string> LsmTree::Get(const Slice& key, uint64_t snapshot) const {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  std::string value;
  // Memtable first (holds the newest data).
  std::shared_ptr<MemTable> mem;
  {
    MutexLock l(write_mu_);
    mem = mem_;
  }
  switch (mem->Get(key, snapshot, &value)) {
    case LookupResult::kFound:
      return value;
    case LookupResult::kDeleted:
      return Status::NotFound("deleted");
    case LookupResult::kNotPresent:
      break;
  }
  // L0: newest file first.
  for (const auto& f : versions_->LevelFiles(0)) {
    switch (TableLookup(*f->table, internal_comparator_, key, snapshot,
                        &value)) {
      case LookupResult::kFound:
        return value;
      case LookupResult::kDeleted:
        return Status::NotFound("deleted");
      case LookupResult::kNotPresent:
        break;
    }
  }
  // Deeper levels: at most one file per level can contain the key. The
  // overlap probe must span all versions of the key (tags sort descending).
  std::string begin = MakeInternalKey(key, kMaxSequence, ValueType::kValue);
  std::string end = MakeInternalKey(key, 0, ValueType::kDeletion);
  for (int level = 1; level < versions_->num_levels(); level++) {
    for (const auto& f : versions_->Overlapping(level, Slice(begin),
                                                Slice(end))) {
      switch (TableLookup(*f->table, internal_comparator_, key, snapshot,
                          &value)) {
        case LookupResult::kFound:
          return value;
        case LookupResult::kDeleted:
          return Status::NotFound("deleted");
        case LookupResult::kNotPresent:
          break;
      }
    }
  }
  return Status::NotFound("key not in LSM");
}

namespace {

/// User-visible iterator: surfaces the newest live version per user key at
/// `snapshot`, hides tombstones and older versions.
class DbIter : public KvIterator {
 public:
  DbIter(std::unique_ptr<KvIterator> internal,
         const InternalKeyComparator* icmp, uint64_t snapshot)
      : internal_(std::move(internal)), icmp_(icmp), snapshot_(snapshot) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    internal_->SeekToFirst();
    FindNextVisible();
  }

  void Seek(const Slice& target) override {
    internal_->Seek(
        Slice(MakeInternalKey(target, snapshot_, ValueType::kValue)));
    FindNextVisible();
  }

  void Next() override {
    // Skip remaining versions of the current key, then find the next one.
    std::string current = user_key_;
    while (internal_->Valid() &&
           icmp_->user_comparator()->Compare(
               ExtractUserKey(internal_->key()), Slice(current)) == 0) {
      internal_->Next();
    }
    FindNextVisible();
  }

  Slice key() const override { return Slice(user_key_); }
  Slice value() const override { return Slice(value_); }
  Status status() const override { return internal_->status(); }

 private:
  void FindNextVisible() {
    valid_ = false;
    while (internal_->Valid()) {
      Slice ikey = internal_->key();
      uint64_t tag = ExtractTag(ikey);
      Slice ukey = ExtractUserKey(ikey);
      if (TagSequence(tag) > snapshot_) {
        internal_->Next();
        continue;
      }
      if (!user_key_.empty() && skipping_ &&
          icmp_->user_comparator()->Compare(ukey, Slice(user_key_)) == 0) {
        internal_->Next();
        continue;
      }
      // Newest visible version of a fresh user key.
      user_key_.assign(ukey.data(), ukey.size());
      if (TagType(tag) == ValueType::kDeletion) {
        skipping_ = true;  // hide all older versions of this key
        internal_->Next();
        continue;
      }
      value_ = internal_->value().ToString();
      skipping_ = true;
      valid_ = true;
      return;
    }
  }

  std::unique_ptr<KvIterator> internal_;
  const InternalKeyComparator* icmp_;
  const uint64_t snapshot_;
  bool valid_ = false;
  bool skipping_ = false;
  std::string user_key_;
  std::string value_;
};

}  // namespace

std::unique_ptr<KvIterator> LsmTree::NewIterator() const {
  std::vector<std::unique_ptr<KvIterator>> children;
  {
    MutexLock l(write_mu_);
    children.push_back(mem_->NewIterator());
  }
  for (int level = 0; level < versions_->num_levels(); level++) {
    for (const auto& f : versions_->LevelFiles(level)) {
      children.push_back(f->table->NewIterator());
    }
  }
  auto merged = std::make_unique<MergingIterator>(&internal_comparator_,
                                                  std::move(children));
  return std::make_unique<DbIter>(std::move(merged), &internal_comparator_,
                                  last_sequence());
}

// ---------------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------------

Status LsmTree::WriteMergedRuns(
    KvIterator* iter, bool drop_tombstones,
    std::vector<std::shared_ptr<FileMeta>>* outputs) {
  std::unique_ptr<sstable::TableBuilder> builder;
  std::unique_ptr<WritableFile> out_file;
  uint64_t out_number = 0;
  std::string smallest, largest;
  std::string last_user_key;
  bool has_last = false;

  auto finish_output = [&]() -> Status {
    if (builder == nullptr) return Status::OK();
    LOGBASE_RETURN_NOT_OK(builder->Finish());
    LOGBASE_RETURN_NOT_OK(out_file->Sync());
    LOGBASE_RETURN_NOT_OK(out_file->Close());
    auto meta = OpenTableFile(out_number, builder->file_size());
    if (!meta.ok()) return meta.status();
    (*meta)->smallest = smallest;
    (*meta)->largest = largest;
    outputs->push_back(std::move(*meta));
    builder.reset();
    out_file.reset();
    return Status::OK();
  };

  for (; iter->Valid(); iter->Next()) {
    Slice ikey = iter->key();
    Slice ukey = ExtractUserKey(ikey);
    // Keep only the newest version of each user key (the merge surfaces it
    // first thanks to descending tags).
    if (has_last && internal_comparator_.user_comparator()->Compare(
                        ukey, Slice(last_user_key)) == 0) {
      continue;
    }
    last_user_key.assign(ukey.data(), ukey.size());
    has_last = true;
    if (drop_tombstones &&
        TagType(ExtractTag(ikey)) == ValueType::kDeletion) {
      continue;
    }

    if (builder == nullptr) {
      out_number = next_file_number_.fetch_add(1);
      auto file = fs_->NewWritableFile(TableFileName(out_number));
      if (!file.ok()) return file.status();
      out_file = std::move(*file);
      builder = std::make_unique<sstable::TableBuilder>(
          internal_table_options_, out_file.get());
      smallest = ikey.ToString();
    }
    largest = ikey.ToString();
    LOGBASE_RETURN_NOT_OK(builder->Add(ikey, iter->value()));
    if (builder->file_size() >= options_.max_output_file_bytes) {
      LOGBASE_RETURN_NOT_OK(finish_output());
    }
  }
  LOGBASE_RETURN_NOT_OK(iter->status());
  return finish_output();
}

Status LsmTree::CompactOnce(bool* did_work) {
  *did_work = false;
  auto pick = versions_->PickCompaction(options_.l0_compaction_trigger,
                                        options_.base_level_bytes);
  if (pick.level < 0) return Status::OK();
  *did_work = true;

  std::vector<std::unique_ptr<KvIterator>> children;
  std::vector<uint64_t> input_numbers;
  std::string smallest, largest;
  auto add_inputs = [&](const std::vector<std::shared_ptr<FileMeta>>& files) {
    for (const auto& f : files) {
      children.push_back(f->table->NewIterator());
      input_numbers.push_back(f->number);
      if (smallest.empty() || internal_comparator_.Compare(
                                  Slice(f->smallest), Slice(smallest)) < 0) {
        smallest = f->smallest;
      }
      if (largest.empty() || internal_comparator_.Compare(
                                 Slice(f->largest), Slice(largest)) > 0) {
        largest = f->largest;
      }
    }
  };
  add_inputs(pick.inputs);
  add_inputs(pick.next_inputs);

  bool drop_tombstones = versions_->IsBottomMost(pick.level + 1,
                                                 Slice(smallest),
                                                 Slice(largest));
  MergingIterator merged(&internal_comparator_, std::move(children));
  merged.SeekToFirst();
  std::vector<std::shared_ptr<FileMeta>> outputs;
  LOGBASE_RETURN_NOT_OK(WriteMergedRuns(&merged, drop_tombstones, &outputs));

  versions_->ApplyCompaction(pick.level, input_numbers, std::move(outputs));
  for (uint64_t number : input_numbers) {
    // Compacted inputs are garbage either way; a leaked file only wastes
    // space until the next manifest replay.
    (void)fs_->DeleteFile(TableFileName(number));
  }
  LOGBASE_LOG(kDebug, "lsm compaction L%d: %zu inputs", pick.level,
              input_numbers.size());
  return SaveManifest();
}

Status LsmTree::CompactUntilQuiet() {
  MutexLock l(write_mu_);
  bool did_work = true;
  while (did_work) {
    LOGBASE_RETURN_NOT_OK(CompactOnce(&did_work));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

Status LsmTree::SaveManifest() {
  std::string contents;
  PutFixed64(&contents, sequence_.load());
  PutFixed64(&contents, next_file_number_.load());
  auto entries = versions_->Snapshot();
  PutVarint32(&contents, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutVarint32(&contents, static_cast<uint32_t>(e.level));
    PutVarint64(&contents, e.number);
    PutVarint64(&contents, e.file_size);
    PutLengthPrefixedSlice(&contents, Slice(e.smallest));
    PutLengthPrefixedSlice(&contents, Slice(e.largest));
  }
  std::string tmp = dir_ + "/" + kManifestTmpName;
  auto file = fs_->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  LOGBASE_RETURN_NOT_OK((*file)->Append(Slice(contents)));
  LOGBASE_RETURN_NOT_OK((*file)->Sync());
  LOGBASE_RETURN_NOT_OK((*file)->Close());
  return fs_->Rename(tmp, dir_ + "/" + kManifestName);
}

Status LsmTree::LoadManifest() {
  auto file = fs_->NewRandomAccessFile(dir_ + "/" + kManifestName);
  if (!file.ok()) return file.status();
  auto contents = (*file)->Read(0, (*file)->Size());
  if (!contents.ok()) return contents.status();
  Slice input(*contents);
  uint64_t seq, next_file;
  uint32_t count;
  if (!GetFixed64(&input, &seq) || !GetFixed64(&input, &next_file) ||
      !GetVarint32(&input, &count)) {
    return Status::Corruption("bad manifest header");
  }
  sequence_.store(seq);
  next_file_number_.store(next_file);
  for (uint32_t i = 0; i < count; i++) {
    uint32_t level;
    uint64_t number, file_size;
    Slice smallest, largest;
    if (!GetVarint32(&input, &level) || !GetVarint64(&input, &number) ||
        !GetVarint64(&input, &file_size) ||
        !GetLengthPrefixedSlice(&input, &smallest) ||
        !GetLengthPrefixedSlice(&input, &largest)) {
      return Status::Corruption("bad manifest entry");
    }
    auto meta = OpenTableFile(number, file_size);
    if (!meta.ok()) return meta.status();
    (*meta)->smallest = smallest.ToString();
    (*meta)->largest = largest.ToString();
    versions_->AddFile(static_cast<int>(level), std::move(*meta));
  }
  return Status::OK();
}

}  // namespace logbase::lsm

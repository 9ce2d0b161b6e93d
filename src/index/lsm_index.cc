#include "src/index/lsm_index.h"

#include "src/index/composite_key.h"
#include "src/obs/metrics.h"

namespace logbase::index {

namespace {

bool ParseEntry(const Slice& encoded_key, const Slice& value,
                IndexEntry* entry) {
  if (!DecodeCompositeKey(encoded_key, &entry->key, &entry->timestamp)) {
    return false;
  }
  Slice input = value;
  return log::DecodeLogPtr(&input, &entry->ptr);
}

}  // namespace

Result<std::unique_ptr<LsmIndex>> LsmIndex::Open(lsm::LsmOptions options,
                                                 FileSystem* fs,
                                                 std::string dir) {
  auto tree = lsm::LsmTree::Open(std::move(options), fs, std::move(dir));
  if (!tree.ok()) return tree.status();
  return std::unique_ptr<LsmIndex>(new LsmIndex(std::move(*tree)));
}

Status LsmIndex::Insert(const Slice& key, uint64_t timestamp,
                        const log::LogPtr& ptr) {
  std::string value;
  log::EncodeLogPtr(&value, ptr);
  return tree_->Put(Slice(EncodeCompositeKey(key, timestamp)), Slice(value));
}

template <typename Visit>
void LsmIndex::Walk(const std::string& from, Visit&& visit) const {
  auto iter = tree_->NewIterator();
  if (from.empty()) {
    iter->SeekToFirst();
  } else {
    iter->Seek(Slice(from));
  }
  for (; iter->Valid(); iter->Next()) {
    IndexEntry entry;
    if (!ParseEntry(iter->key(), iter->value(), &entry)) continue;
    if (!visit(std::move(entry))) return;
  }
}

size_t LsmIndex::num_entries() const {
  size_t count = 0;
  Walk("", [&](IndexEntry&&) {
    count++;
    return true;
  });
  return count;
}

Status LsmIndex::UpdateIfPresent(const Slice& key, uint64_t timestamp,
                                 const log::LogPtr& ptr) {
  auto existing = GetAsOf(key, timestamp);
  if (!existing.ok()) return existing.status();
  if (existing->timestamp != timestamp) {
    return Status::NotFound("version not indexed");
  }
  std::string value;
  log::EncodeLogPtr(&value, ptr);
  return tree_->Put(Slice(EncodeCompositeKey(key, timestamp)), Slice(value));
}

Result<IndexEntry> LsmIndex::GetAsOf(const Slice& key, uint64_t as_of) const {
  static obs::Counter* probes =
      obs::MetricsRegistry::Global().counter("index.lsm.probes");
  probes->Add();
  auto iter = tree_->NewIterator();
  iter->Seek(Slice(EncodeCompositeKey(key, as_of)));
  if (!iter->Valid()) return Status::NotFound("key not in index");
  IndexEntry entry;
  if (!ParseEntry(iter->key(), iter->value(), &entry)) {
    return Status::Corruption("bad index entry");
  }
  if (Slice(entry.key) != key) return Status::NotFound("key not in index");
  return entry;
}

std::vector<IndexEntry> LsmIndex::GetAllVersions(const Slice& key) const {
  std::vector<IndexEntry> versions;
  Walk(EncodeCompositeKey(key, kLatest), [&](IndexEntry&& entry) {
    if (Slice(entry.key) != key) return false;
    versions.push_back(std::move(entry));
    return true;
  });
  return versions;
}

Status LsmIndex::RemoveAllVersions(const Slice& key) {
  std::vector<IndexEntry> versions = GetAllVersions(key);
  for (const IndexEntry& v : versions) {
    LOGBASE_RETURN_NOT_OK(
        tree_->Delete(Slice(EncodeCompositeKey(Slice(v.key), v.timestamp))));
  }
  return Status::OK();
}

std::vector<IndexEntry> LsmIndex::ScanRange(const Slice& start,
                                            const Slice& end,
                                            uint64_t as_of) const {
  std::vector<IndexEntry> result;
  NewestVisible newest(as_of);
  Walk(EncodeCompositeKey(start, kLatest), [&](IndexEntry&& entry) {
    if (!end.empty() && Slice(entry.key).compare(end) >= 0) return false;
    if (newest.Admit(Slice(entry.key), entry.timestamp)) {
      result.push_back(std::move(entry));
    }
    return true;
  });
  return result;
}

void LsmIndex::VisitAll(
    const std::function<void(const IndexEntry&)>& visitor) const {
  Walk("", [&](IndexEntry&& entry) {
    visitor(entry);
    return true;
  });
}

}  // namespace logbase::index

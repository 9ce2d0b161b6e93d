#include "src/index/index_checkpoint.h"

#include <algorithm>
#include <vector>

#include "src/util/coding.h"

namespace logbase::index {

namespace {

void PutLogPtr(std::string* out, const log::LogPtr& ptr) {
  PutVarint32(out, ptr.instance);
  PutVarint32(out, ptr.segment);
  PutVarint64(out, ptr.offset);
  PutVarint32(out, ptr.size);
}

bool GetLogPtr(Slice* in, log::LogPtr* ptr) {
  return GetVarint32(in, &ptr->instance) && GetVarint32(in, &ptr->segment) &&
         GetVarint64(in, &ptr->offset) && GetVarint32(in, &ptr->size);
}

/// Walks one section from the front of `in`, handing each entry to `visit`
/// with the key rebuilt from its shared prefix. Corruption, with `in` left
/// part-way, on any entry that does not parse.
template <typename Visit>
Status WalkSection(Slice* in, Visit&& visit) {
  uint64_t count;
  if (!GetFixed64(in, &count)) {
    return Status::Corruption("bad index section header");
  }
  std::string key;
  uint64_t timestamp = 0;
  for (uint64_t i = 0; i < count; i++) {
    uint32_t shared, rest;
    if (!GetVarint32(in, &shared) || !GetVarint32(in, &rest) ||
        shared > key.size() || rest > in->size()) {
      return Status::Corruption("bad index section key");
    }
    const bool same_key = i > 0 && shared == key.size() && rest == 0;
    key.resize(shared);
    key.append(in->data(), rest);
    in->remove_prefix(rest);
    uint64_t stored;
    if (!GetVarint64(in, &stored) || (same_key && stored > timestamp)) {
      return Status::Corruption("bad index section timestamp");
    }
    timestamp = same_key ? timestamp - stored : stored;
    log::LogPtr ptr;
    if (!GetLogPtr(in, &ptr)) {
      return Status::Corruption("bad index section pointer");
    }
    LOGBASE_RETURN_NOT_OK(visit(Slice(key), timestamp, ptr));
  }
  return Status::OK();
}

}  // namespace

void EncodeIndexSection(const MultiVersionIndex& index, std::string* out) {
  const size_t count_at = out->size();
  PutFixed64(out, 0);
  uint64_t written = 0;
  std::string prev;  // the previous entry's key
  uint64_t prev_timestamp = 0;
  index.VisitAll([&](const IndexEntry& entry) {
    const size_t limit = std::min(prev.size(), entry.key.size());
    size_t shared = 0;
    while (shared < limit && prev[shared] == entry.key[shared]) shared++;
    const bool same_key = written > 0 && entry.key == prev;
    PutVarint32(out, static_cast<uint32_t>(shared));
    PutVarint32(out, static_cast<uint32_t>(entry.key.size() - shared));
    out->append(entry.key, shared, std::string::npos);
    // VisitAll walks a key's versions newest first, so the gap is >= 0.
    PutVarint64(out, same_key ? prev_timestamp - entry.timestamp
                              : entry.timestamp);
    PutLogPtr(out, entry.ptr);
    prev = entry.key;
    prev_timestamp = entry.timestamp;
    written++;
  });
  // num_entries() may move under concurrent writes; store what was
  // actually serialized.
  EncodeFixed64(out->data() + count_at, written);
}

Status DecodeIndexSection(
    Slice* in, MultiVersionIndex* index,
    const std::function<bool(const Slice& key)>& filter) {
  // Check the whole section before inserting anything, so a corrupt one
  // leaves the index as it was.
  Slice rest = *in;
  LOGBASE_RETURN_NOT_OK(WalkSection(
      &rest, [](const Slice&, uint64_t, const log::LogPtr&) {
        return Status::OK();
      }));
  if (index != nullptr) {
    LOGBASE_RETURN_NOT_OK(WalkSection(
        in, [index, &filter](const Slice& key, uint64_t timestamp,
                             const log::LogPtr& ptr) {
          if (filter != nullptr && !filter(key)) return Status::OK();
          return index->Insert(key, timestamp, ptr);
        }));
  }
  *in = rest;
  return Status::OK();
}

}  // namespace logbase::index

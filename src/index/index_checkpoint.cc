#include "src/index/index_checkpoint.h"

#include "src/util/coding.h"

namespace logbase::index {

void EncodeIndexSection(const MultiVersionIndex& index, std::string* out) {
  const size_t count_at = out->size();
  PutFixed64(out, 0);
  uint64_t written = 0;
  index.VisitAll([out, &written](const IndexEntry& entry) {
    PutLengthPrefixedSlice(out, Slice(entry.key));
    PutFixed64(out, entry.timestamp);
    log::EncodeLogPtr(out, entry.ptr);
    written++;
  });
  // num_entries() may move under concurrent writes; store what was
  // actually serialized.
  EncodeFixed64(out->data() + count_at, written);
}

Status DecodeIndexSection(
    Slice* in, MultiVersionIndex* index,
    const std::function<bool(const Slice& key)>& filter) {
  uint64_t count;
  if (!GetFixed64(in, &count)) {
    return Status::Corruption("bad index section header");
  }
  for (uint64_t i = 0; i < count; i++) {
    Slice key;
    uint64_t timestamp;
    log::LogPtr ptr;
    if (!GetLengthPrefixedSlice(in, &key) || !GetFixed64(in, &timestamp) ||
        !log::DecodeLogPtr(in, &ptr)) {
      return Status::Corruption("bad index section entry");
    }
    if (index == nullptr || (filter != nullptr && !filter(key))) continue;
    LOGBASE_RETURN_NOT_OK(index->Insert(key, timestamp, ptr));
  }
  return Status::OK();
}

}  // namespace logbase::index

// The index section of a checkpoint (paper §3.5/§3.8): one in-memory index
// encoded as fixed64 entry count, then entries (length-prefixed key, fixed64
// timestamp, LogPtr). A tablet server's checkpoint file holds one section
// per hosted tablet; reloading the sections lets a restarted server skip
// scanning the whole log. The file, its header and its checksum belong to
// the tablet server (src/tablet/checkpoint.cc).

#ifndef LOGBASE_INDEX_INDEX_CHECKPOINT_H_
#define LOGBASE_INDEX_INDEX_CHECKPOINT_H_

#include <functional>
#include <string>

#include "src/index/multiversion_index.h"

namespace logbase::index {

/// Appends every entry of `index` to `out` as one section.
void EncodeIndexSection(const MultiVersionIndex& index, std::string* out);

/// Consumes one section from the front of `in`, inserting each entry whose
/// key passes `filter` (every entry when null) into `index`. A null `index`
/// only checks and skips the section.
Status DecodeIndexSection(
    Slice* in, MultiVersionIndex* index,
    const std::function<bool(const Slice& key)>& filter = nullptr);

}  // namespace logbase::index

#endif  // LOGBASE_INDEX_INDEX_CHECKPOINT_H_

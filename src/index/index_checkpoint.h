// The index section of a checkpoint (paper §3.5/§3.8): one in-memory index
// encoded as a fixed64 entry count, then its entries in VisitAll order (key
// ascending, timestamp descending). Each entry is the varint length of the
// prefix its key shares with the previous entry's key, the varint length of
// the rest and those bytes, a varint timestamp (the full value for a key's
// first version, the gap below the previous version for each later one),
// and the LogPtr's four fields as varints, about 12 bytes an entry for
// 11-byte keys. A tablet server's checkpoint file holds one
// section per hosted tablet; reloading the sections lets a restarted server
// skip scanning the whole log. The file, its header and its checksum belong
// to the tablet server (src/tablet/checkpoint.cc).

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
/// only checks and skips the section. The whole section is checked first:
/// a corrupt one returns Corruption and inserts nothing.
Status DecodeIndexSection(
    Slice* in, MultiVersionIndex* index,
    const std::function<bool(const Slice& key)>& filter = nullptr);

}  // namespace logbase::index

#endif  // LOGBASE_INDEX_INDEX_CHECKPOINT_H_

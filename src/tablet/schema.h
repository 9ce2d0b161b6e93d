// Table schemas, column groups (vertical partitions, §3.2) and tablet
// descriptors (horizontal partitions of a column group).

#ifndef LOGBASE_TABLET_SCHEMA_H_
#define LOGBASE_TABLET_SCHEMA_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/slice.h"

namespace logbase::tablet {

/// Columns stored together in one physical partition because the workload
/// accesses them together.
struct ColumnGroup {
  uint32_t id = 0;
  std::string name;
  std::vector<std::string> columns;
};

struct TableSchema {
  uint32_t id = 0;
  std::string name;
  std::vector<std::string> columns;
  std::vector<ColumnGroup> groups;
};

/// One tablet: a key range of one column group of one table.
struct TabletDescriptor {
  uint32_t table_id = 0;
  std::string table_name;
  uint32_t column_group = 0;
  uint32_t range_id = 0;
  std::string start_key;  // inclusive
  std::string end_key;    // exclusive; empty = unbounded

  /// Packed id recorded in LogKey.tablet_id (column group in the high bits).
  uint32_t packed_id() const { return (column_group << 20) | range_id; }
  /// Inverse of packed_id(): the identity a LogKey names. Name and key
  /// range are not logged, so they stay empty.
  static TabletDescriptor FromPackedId(uint32_t table_id, uint32_t packed) {
    TabletDescriptor d;
    d.table_id = table_id;
    d.column_group = packed >> 20;
    d.range_id = packed & 0xfffff;
    return d;
  }

  /// Stable identifier used for maps, checkpoint file names and routing.
  std::string uid() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "t%u.g%u.r%u", table_id, column_group,
                  range_id);
    return buf;
  }

  bool Contains(const Slice& key) const {
    if (!start_key.empty() && key.compare(Slice(start_key)) < 0) return false;
    if (!end_key.empty() && key.compare(Slice(end_key)) >= 0) return false;
    return true;
  }

  /// Whether two tablets of the same column group cover intersecting key
  /// ranges (a split child overlaps its parent; siblings never overlap).
  bool Overlaps(const TabletDescriptor& other) const {
    if (table_id != other.table_id || column_group != other.column_group) {
      return false;
    }
    bool below = end_key.empty() || other.start_key.empty() ||
                 other.start_key < end_key;
    bool above = other.end_key.empty() || start_key.empty() ||
                 start_key < other.end_key;
    return below && above;
  }
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_SCHEMA_H_

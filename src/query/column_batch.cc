#include "src/query/column_batch.h"

#include "src/util/coding.h"

namespace logbase::query {

std::string EncodeColumnMap(const std::map<std::string, std::string>& columns) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(columns.size()));
  for (const auto& [name, value] : columns) {
    PutLengthPrefixedSlice(&out, Slice(name));
    PutLengthPrefixedSlice(&out, Slice(value));
  }
  return out;
}

bool DecodeColumnMap(const Slice& value,
                     std::map<std::string, std::string>* out) {
  Slice in = value;
  uint32_t count;
  if (!GetVarint32(&in, &count)) return false;
  std::map<std::string, std::string> columns;
  for (uint32_t i = 0; i < count; i++) {
    Slice name, val;
    if (!GetLengthPrefixedSlice(&in, &name) ||
        !GetLengthPrefixedSlice(&in, &val)) {
      return false;
    }
    columns[name.ToString()] = val.ToString();
  }
  if (!in.empty()) return false;
  *out = std::move(columns);
  return true;
}

const BatchColumn* ColumnBatch::Find(const std::string& name) const {
  for (const BatchColumn& column : columns) {
    if (column.name == name) return &column;
  }
  return nullptr;
}

// Wire layout the size counts (sizes varint, order fixed):
//   row_count | keys... | timestamps (varint each) | column_count |
//   per column: name | presence bytes (row_count raw bytes) |
//               cells (length-prefixed, present rows only)
// Absent cells are left out entirely — that omission IS the
// projection/selectivity byte win.

uint64_t ColumnBatch::EncodedSize() const {
  uint64_t size = VarintLength(keys.size());
  for (const std::string& key : keys) {
    size += VarintLength(key.size()) + key.size();
  }
  for (uint64_t ts : timestamps) size += VarintLength(ts);
  size += VarintLength(columns.size());
  for (const BatchColumn& column : columns) {
    size += VarintLength(column.name.size()) + column.name.size();
    size += column.present.size();
    for (size_t i = 0; i < column.cells.size(); i++) {
      if (column.present[i] != 0) {
        size += VarintLength(column.cells[i].size()) + column.cells[i].size();
      }
    }
  }
  return size;
}

}  // namespace logbase::query

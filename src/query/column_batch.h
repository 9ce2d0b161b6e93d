// Column-group-aligned row batches: the unit a pushed-down scan ships from
// tablet servers to the client. Rows are decomposed into parallel vectors
// (keys, timestamps, one cell vector + presence bitmap per column) so the
// executor evaluates predicates column-at-a-time and the wire carries only
// the projected columns — not the full stored rows.
//
// Batches reach the client as values, like query plans; the client charges
// `EncodedSize()` bytes to the network model per shipped batch, so the
// bytes-on-the-wire win of projection/aggregation pushdown is physically
// modeled, not just reported.

#ifndef LOGBASE_QUERY_COLUMN_BATCH_H_
#define LOGBASE_QUERY_COLUMN_BATCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/slice.h"

namespace logbase::query {

/// The column-group value codec (one stored value = varint count +
/// length-prefixed name/value pairs). Canonical implementation:
/// client::EncodeColumns/DecodeColumns delegate here, and the executor
/// gathers evaluation cells through it, so the wire format cannot fork.
std::string EncodeColumnMap(const std::map<std::string, std::string>& columns);
/// False on malformed input (`out` untouched); a value that is not
/// column-encoded simply has no cells.
bool DecodeColumnMap(const Slice& value,
                     std::map<std::string, std::string>* out);

/// Reserved column name carrying the stored column-group value verbatim when
/// a plan ships whole rows (empty projection). Reconstructing `ReadRow`s
/// from such batches is byte-exact, which is what lets the classic client
/// `Scan` route through the query path.
inline constexpr char kRawValueColumn[] = "_raw";

/// One column of a batch: cells parallel to the batch's keys, plus a
/// presence byte per row (a row may lack a column; absent cells are empty
/// strings and must not be confused with present-but-empty ones).
struct BatchColumn {
  std::string name;
  std::vector<std::string> cells;
  std::vector<uint8_t> present;
};

struct ColumnBatch {
  std::vector<std::string> keys;
  std::vector<uint64_t> timestamps;
  std::vector<BatchColumn> columns;

  size_t NumRows() const { return keys.size(); }
  const BatchColumn* Find(const std::string& name) const;

  /// Wire size of the batch's deterministic layout (column_batch.cc); the
  /// client charges this to the network per batch.
  uint64_t EncodedSize() const;
};

}  // namespace logbase::query

#endif  // LOGBASE_QUERY_COLUMN_BATCH_H_

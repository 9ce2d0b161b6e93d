// The one read path of tablet servers and read replicas (paper §3.6.2):
// read buffer, then the in-memory multiversion index, then one log seek.
// Both server kinds consult their read buffer here, the same way; they
// differ only in the index, the buffer instance, the log fetch callback and
// the snapshot (a timestamp; index::kLatest reads the newest version).

#ifndef LOGBASE_TABLET_READ_PATH_H_
#define LOGBASE_TABLET_READ_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/index/multiversion_index.h"
#include "src/log/log_reader.h"
#include "src/query/column_batch.h"
#include "src/query/executor.h"
#include "src/tablet/read_buffer.h"
#include "src/util/result.h"
#include "src/util/slice.h"

namespace logbase::tablet {

/// A read result: the version (write timestamp) and value.
struct ReadValue {
  uint64_t timestamp = 0;
  std::string value;
};

/// A row surfaced by a scan.
struct ReadRow {
  std::string key;
  uint64_t timestamp = 0;
  std::string value;
};

/// The read-buffer key of `key` in tablet `uid` (one buffer per server).
std::string BufferKey(const std::string& uid, const Slice& key);

/// Reads the record `entry` points at: one log seek plus the record decode.
/// Corruption when the record there is not the indexed version.
Result<std::string> FetchValue(log::LogReader* reader,
                               const index::IndexEntry& entry);

/// The version of `key` visible at `snapshot`: the buffered version when
/// visible there, else an index probe and a `fetch`. The buffer holds only
/// newest versions, so a miss is cached only at index::kLatest.
Result<ReadValue> ReadPoint(const index::MultiVersionIndex& index,
                            ReadBuffer* buffer, const std::string& uid,
                            const Slice& key, uint64_t snapshot,
                            const query::ValueFetcher& fetch);

/// Runs `plan` over its key range at `snapshot`; reports into the
/// query.scan.* metrics. The index picks each row's version, so the buffer
/// answers only when it holds exactly that version; other rows come from
/// `fetch` and fill the buffer only at index::kLatest. Adds each row's key
/// and value bytes to `*row_bytes` when it is not null.
Result<query::TabletResult> ReadRange(const index::MultiVersionIndex& index,
                                      ReadBuffer* buffer,
                                      const std::string& uid,
                                      const query::QueryPlan& plan,
                                      uint64_t snapshot, size_t batch_rows,
                                      const query::ValueFetcher& fetch,
                                      uint64_t* row_bytes = nullptr);

/// The rows of raw-value batches, as a plan with no projection ships them.
std::vector<ReadRow> RowsFromBatches(
    const std::vector<query::ColumnBatch>& batches);

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_READ_PATH_H_

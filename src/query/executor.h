// The shared scan-pushdown executor: evaluates a QueryPlan over one
// tablet's index entries, fetching record values through a caller-supplied
// callback. Both server kinds reach it through tablet::ReadRange
// (src/tablet/read_path.h), whose callback tries the server's read buffer
// before its log, so their results are bit-identical by construction — the
// differential test in tests/query_test.cc pins that.
//
// Evaluation is columnar: each chunk of scanned rows is decomposed into the
// plan's referenced columns (cells + presence), the predicate runs
// column-at-a-time producing a selection bitmap, and survivors are either
// compacted into projected ColumnBatches or folded into aggregation
// partials. Partials merge associatively (sum-of-sums, min-of-mins,
// group-by map merge), so partition-parallel scatter/gather never changes
// an answer.

#ifndef LOGBASE_QUERY_EXECUTOR_H_
#define LOGBASE_QUERY_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/index/multiversion_index.h"
#include "src/query/column_batch.h"
#include "src/query/plan.h"
#include "src/util/result.h"

namespace logbase::query {

/// Server-side execution knobs, passed to the server beside the plan.
struct ExecOptions {
  /// Snapshot bound (the index's ScanRange semantics): latest by default.
  uint64_t as_of = index::kLatest;
  /// Rows per shipped ColumnBatch (streaming granularity).
  size_t batch_rows = 256;
};

/// What one tablet's execution cost and produced; the client sums these
/// across tablets and the server reports them into query.scan.* metrics.
struct ScanStats {
  uint64_t rows_scanned = 0;   // index entries visited (pre-predicate)
  uint64_t rows_returned = 0;  // rows surviving predicate (or aggregated)
  uint64_t bytes_shipped = 0;  // wire size of the batches / partials
};

/// One group's accumulator. All fields merge unconditionally (count/sum
/// add, min/max combine) so a partial carries everything any Kind needs.
struct AggBucket {
  uint64_t count = 0;
  int64_t sum = 0;
  bool has_minmax = false;
  Value min;
  Value max;
};

/// Aggregation partials: group key (primary-key prefix; "" when ungrouped)
/// -> bucket. std::map keeps groups ordered, so merge order and rendering
/// are deterministic.
struct AggResult {
  std::map<std::string, AggBucket> groups;

  void Merge(const AggResult& other);
  /// Wire size, charged to the network when a server ships partials:
  /// group count, then per group its key, count (varint), sum (fixed64), a
  /// has-min/max byte and, when set, min and max.
  uint64_t EncodedSize() const;
  /// Deterministic one-line-per-group rendering of the plan's aggregate —
  /// what the differential test compares across execution paths.
  std::string Render(const Aggregation& spec) const;
};

/// One tablet's execution output: row batches or aggregation partials.
struct TabletResult {
  bool aggregated = false;
  std::vector<ColumnBatch> batches;  // row queries
  AggResult agg;                     // aggregation queries
  ScanStats stats;
};

/// Fetches the record value of an index entry; the executor calls it once
/// per scanned entry, in entry order. tablet::ReadRange passes one that
/// serves from the read buffer when it holds the entry's version and falls
/// back to the server's log fetch.
using ValueFetcher =
    std::function<Result<std::string>(const index::IndexEntry&)>;

/// Runs `plan` over `entries` (already range- and snapshot-filtered by the
/// caller's index scan), fetching values through `fetch`.
Result<TabletResult> ExecuteOverEntries(const QueryPlan& plan,
                                        const std::vector<index::IndexEntry>& entries,
                                        const ValueFetcher& fetch,
                                        size_t batch_rows);

/// Appends/merges one tablet's result into an accumulator (batches append
/// in call order; partials merge). The first call fixes `aggregated`.
void MergeInto(TabletResult* acc, TabletResult&& part);

/// Reports one server-side execution into the query.scan.* metrics
/// (rows_scanned/rows_returned/bytes_shipped counters, pushdown_selectivity
/// histogram in percent).
void RecordScanMetrics(const ScanStats& stats);

}  // namespace logbase::query

#endif  // LOGBASE_QUERY_EXECUTOR_H_

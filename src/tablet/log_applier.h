// The committed-record applier (paper §3.8): consumes one log instance's
// records in log order and applies exactly the committed ones to
// multiversion indexes. Crash recovery, tablet adoption and read-replica
// tailing all replay the log through it.
//
// Auto-commit records (txn_id == 0) apply at once. Transactional records
// carry their commit timestamp but only become visible at their COMMIT
// record, so they buffer by txn id until it arrives; a transaction whose
// COMMIT never appears stays invisible (compaction reclaims its records).
//
// Watermark rule: while any transaction is buffered, the watermark holds
// back to just below its smallest pending write timestamp. Reads at or below
// the watermark see exactly what the primary's as-of reads see; reads above
// it could retroactively grow as buffered commits land.

#ifndef LOGBASE_TABLET_LOG_APPLIER_H_
#define LOGBASE_TABLET_LOG_APPLIER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/index/multiversion_index.h"
#include "src/log/log_record.h"
#include "src/tablet/schema.h"

namespace logbase::tablet {

/// Whether `record` belongs to `descriptor`: same table and column group,
/// primary key inside the range. Matching by key rather than packed id lets
/// records logged under a pre-split parent reach the child now covering
/// them.
bool RecordBelongsTo(const log::LogRecord& record,
                     const TabletDescriptor& descriptor);

class LogApplier {
 public:
  /// Maps a data or invalidate record to the index that absorbs it; nullptr
  /// skips the record. Evaluated when the record is seen, not at COMMIT.
  using Route =
      std::function<index::MultiVersionIndex*(const log::LogRecord& record)>;
  /// Observes each op after it reached its index, in apply order.
  using OnApply = std::function<void(bool is_delete, const std::string& key,
                                     uint64_t timestamp,
                                     const std::string& value)>;

  /// `seeded_max_ts` is the newest timestamp already in the routed indexes
  /// (a checkpoint-seeded replica starts its watermark there).
  explicit LogApplier(Route route, OnApply on_apply = nullptr,
                      uint64_t seeded_max_ts = 0);

  /// Consumes the next record in log order. Not thread-safe.
  Status Apply(const log::LogRecord& record, const log::LogPtr& ptr);

  uint64_t max_applied_ts() const { return max_applied_ts_; }
  /// The snapshot bound: reads at timestamps <= Watermark() are
  /// prefix-consistent with the log's committed history.
  uint64_t Watermark() const;

 private:
  struct PendingOp {
    index::MultiVersionIndex* index = nullptr;
    bool is_delete = false;
    std::string key;
    uint64_t timestamp = 0;
    log::LogPtr ptr;
    std::string value;  // kept only when on_apply_ needs it
  };

  Status ApplyOp(index::MultiVersionIndex* index, bool is_delete,
                 const std::string& key, uint64_t timestamp,
                 const log::LogPtr& ptr, const std::string& value);

  const Route route_;
  const OnApply on_apply_;
  // Transactional ops awaiting their COMMIT, by txn id.
  std::map<uint64_t, std::vector<PendingOp>> pending_;
  uint64_t max_applied_ts_;
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_LOG_APPLIER_H_

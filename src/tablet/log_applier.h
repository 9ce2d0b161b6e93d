// The committed-record applier (paper §3.8): consumes one log instance's
// records in log order and applies exactly the committed ones to
// multiversion indexes. Crash recovery, tablet adoption and read-replica
// tailing all replay the log through it.
//
// Auto-commit records (txn_id == 0) apply at once. Transactional records
// carry their commit timestamp, which names the transaction, and buffer
// until a COMMIT record applies them or an ABORT record drops them. A
// cross-server transaction also logs a PREPARE beside its data on every
// participant, naming every participant's log instance. Its decision rule
// (src/txn/transaction_manager.h) is that it committed exactly when every
// participant holds its durable PREPARE; the COMMIT and ABORT records only
// record that decision, off the commit's critical path.
//
// A recovery or adoption replay ends with ResolveInDoubt. A transaction the
// log left pending whose coordinator may still act on it (its write locks
// are still held) is left pending and nothing is recorded: the missing
// PREPARE may yet land, and the coordinator then appends the decision
// itself. Every other pending transaction is decided, in this order: a
// COMMIT in any participant's log means committed; an ABORT in any
// participant's log means aborted; otherwise it committed exactly when every
// named participant's log holds its PREPARE. A pending transaction without a
// PREPARE never reached a decision (a single-server transaction logs its
// data and COMMIT in one atomic batch), so it is aborted. The caller records
// each outcome in its own log. Compaction decides with the same rule
// (DecidePrepared).
//
// Watermark rule: while any transaction is buffered, the watermark holds
// back to just below its smallest pending write timestamp. Reads at or below
// the watermark see exactly what the primary's as-of reads see; reads above
// it could retroactively grow as buffered commits land. A tailing replica
// never resolves: it waits for the COMMIT or ABORT record, which the
// coordinator or a participant's in-doubt resolver appends.

#ifndef LOGBASE_TABLET_LOG_APPLIER_H_
#define LOGBASE_TABLET_LOG_APPLIER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/index/multiversion_index.h"
#include "src/log/log_reader.h"
#include "src/log/log_record.h"
#include "src/tablet/schema.h"

namespace logbase::tablet {

/// Whether `record` belongs to `descriptor`: same table and column group,
/// primary key inside the range. Matching by key rather than packed id lets
/// records logged under a pre-split parent reach the child now covering
/// them.
bool RecordBelongsTo(const log::LogRecord& record,
                     const TabletDescriptor& descriptor);

/// How one committed op changes a multiversion index (paper §3.6.3): a put
/// adds the version at `ptr`, a delete drops every version of the key. The
/// write path's publish and the log replay both apply ops through here.
Status ApplyToIndex(index::MultiVersionIndex* index, bool is_delete,
                    const Slice& key, uint64_t timestamp,
                    const log::LogPtr& ptr);

/// Reader over a log instance's segments (TabletServer::ReaderFor).
using LogReaderFor = std::function<log::LogReader*(uint32_t instance)>;

/// Whether a coordinator may still act on the transaction that logged a
/// write of `key` into the tablet `tablet` names: TabletServer answers
/// whether the cell's write lock is held. A lock set is taken and released
/// whole, so one cell answers for the transaction.
using CoordinatorActive =
    std::function<bool(const log::LogKey& tablet, const std::string& key)>;

/// The decision rule for prepared transactions whose log `instance` holds
/// their PREPARE but no COMMIT or ABORT, and whose coordinator is done.
/// `prepared` maps each one's commit timestamp to its participants. Scans
/// every other named participant's log, all lanes included, until each
/// transaction has met a COMMIT or ABORT or the logs end, and returns the
/// commit timestamps of those that committed: a COMMIT in any participant's
/// log, else no ABORT in any and a PREPARE in every one.
Result<std::set<uint64_t>> DecidePrepared(
    const std::map<uint64_t, std::vector<uint32_t>>& prepared,
    uint32_t instance, const LogReaderFor& reader_for);

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

  /// One transaction's outcome, for the records that log it.
  struct Decision {
    uint64_t commit_ts = 0;
    bool committed = false;
  };

  /// Consumes the next record in log order. Not thread-safe.
  Status Apply(const log::LogRecord& record, const log::LogPtr& ptr);

  /// Decides every transaction still pending after a replay of `instance`'s
  /// log whose coordinator is no longer `active` (the rule in the header
  /// comment), applies the committed ones and returns every decision, for
  /// the caller to record in its own log. The others stay pending.
  Result<std::vector<Decision>> ResolveInDoubt(
      uint32_t instance, const LogReaderFor& reader_for,
      const CoordinatorActive& active);

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
  struct PendingTxn {
    log::LogKey tablet;  // of the first op, for CoordinatorActive
    std::vector<PendingOp> ops;
    std::vector<uint32_t> participants;  // from its PREPARE, if logged
  };

  // Transactions awaiting their decision, by commit timestamp; each holds
  // at least one routed op.
  std::map<uint64_t, PendingTxn> pending_;
  uint64_t max_applied_ts_;
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_LOG_APPLIER_H_

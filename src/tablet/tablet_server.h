// The tablet server (paper §3.3/§3.6): a single log instance in the DFS as
// the *only* data repository, one in-memory multiversion index per column
// group per tablet, an optional read buffer, checkpointing, recovery and log
// compaction. Auto-commit writes and transactions (src/txn/) share one
// write surface: Submit / Wait / Publish.

#ifndef LOGBASE_TABLET_TABLET_SERVER_H_
#define LOGBASE_TABLET_TABLET_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/balance/load_report.h"
#include "src/coord/coordination_service.h"
#include "src/dfs/dfs.h"
#include "src/index/multiversion_index.h"
#include "src/log/log_reader.h"
#include "src/log/log_writer.h"
#include "src/lsm/lsm_tree.h"
#include "src/qos/admission.h"
#include "src/query/executor.h"
#include "src/tablet/log_applier.h"
#include "src/tablet/read_buffer.h"
#include "src/tablet/read_path.h"
#include "src/tablet/tablet.h"

#include "src/util/ordered_mutex.h"

namespace logbase::tablet {

struct TabletServerOptions {
  /// Server id == cluster node id == log instance id.
  int server_id = 0;
  index::IndexKind index_kind = index::IndexKind::kBlink;
  uint64_t segment_bytes = 64ull << 20;
  /// 0 disables the read buffer (it is an optional component, §3.6.1).
  size_t read_buffer_bytes = 0;
  /// Persist indexes after this many updates (0 = only explicit
  /// checkpoints), §3.6.1.
  uint64_t checkpoint_update_threshold = 0;
  /// Group-commit settings for the server's log writer (batch window).
  log::GroupCommitOptions group_commit;
  /// Settings for IndexKind::kLsm.
  lsm::LsmOptions lsm;
  /// Multi-tenant QoS at the front door (src/qos/): disabled by default.
  qos::AdmissionOptions admission;
};

struct CompactionOptions {
  /// Keep at most this many newest versions per key (0 = keep all).
  uint32_t max_versions_per_key = 0;
};

struct CompactionStats {
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  uint64_t dropped_invalidated = 0;
  uint64_t dropped_uncommitted = 0;
  uint64_t dropped_obsolete = 0;
  uint32_t output_segments = 0;
};

struct RecoveryStats {
  bool loaded_checkpoint = false;
  uint64_t checkpoint_entries = 0;
  uint64_t redo_records = 0;
  uint64_t redo_bytes = 0;
  /// Transactions the replay left undecided, by the resolver's outcome;
  /// deferred ones had a coordinator that may still act, so stay pending.
  uint64_t in_doubt_committed = 0;
  uint64_t in_doubt_aborted = 0;
  uint64_t in_doubt_deferred = 0;
};

/// One op of a mutation batch: a put, or a delete (an INVALIDATE record,
/// §3.6.3), of one key in one tablet.
struct WriteOp {
  std::string tablet_uid;
  std::string key;
  std::string value;  // empty for a delete
  bool is_delete = false;
};

/// The transaction record a mutation batch appends after its ops, if any.
enum class TxnMark : uint8_t {
  kNone,
  /// PREPARE naming `TxnStamp::participants`: this participant's share of
  /// a cross-server transaction is durable.
  kPrepare,
  kCommit,
};

/// Marks a mutation batch as (part of) a transaction's write set: every op
/// is stamped with `txn_id` and versioned at `commit_ts`, and `mark` picks
/// the record appended after the ops. txn_id 0 is auto-commit: each op
/// draws its own timestamp and is visible once published.
struct TxnStamp {
  uint64_t txn_id = 0;
  uint64_t commit_ts = 0;
  TxnMark mark = TxnMark::kNone;
  /// kPrepare: every participant's log instance, ascending.
  std::vector<uint32_t> participants;
};

/// A mutation batch in flight: Submit enqueues its records, Wait fills
/// `ptrs` once they are durable, Publish makes the ops visible.
struct MutationBatch {
  std::vector<WriteOp> ops;
  std::vector<uint64_t> timestamps;  // one per op
  std::vector<log::LogPtr> ptrs;     // one per op, after Wait
  log::AppendTicket ticket;
  /// Unrecorded transaction decisions whose records ride in this batch.
  std::vector<LogApplier::Decision> decisions;
};

class TabletServer {
 public:
  TabletServer(TabletServerOptions options, dfs::Dfs* dfs,
               coord::CoordinationService* coord);
  ~TabletServer();

  TabletServer(const TabletServer&) = delete;
  TabletServer& operator=(const TabletServer&) = delete;

  /// Brings the server up: coordination session + liveness znode, recovery
  /// from checkpoint + log redo, then a fresh log segment for new writes.
  Status Start(RecoveryStats* recovery_stats = nullptr);

  /// Graceful shutdown: checkpoint, close session.
  Status Stop();

  /// Simulated machine crash: all in-memory state (indexes, read buffer) is
  /// lost; the log and checkpoint files in the DFS survive.
  void Crash();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // -- Tablet management -----------------------------------------------

  Status OpenTablet(const TabletDescriptor& descriptor);
  /// Takes over a tablet from another log instance: loads that instance's
  /// checkpointed index entries overlapping the descriptor's key range
  /// (filtered to it — a split child loads just its half of the parent's
  /// checkpoint) and redoes the instance's log tail past the checkpoint,
  /// filtered by key containment (§3.8). Serves permanent-failure adoption,
  /// live migration and split-child rebuild — all are "hand over the log
  /// tail and rebuild the index". `stats` (optional) reports how much was
  /// reloaded vs. replayed.
  Status AdoptTablet(const TabletDescriptor& descriptor,
                     uint32_t source_instance,
                     RecoveryStats* stats = nullptr);
  /// Migration fencing: a sealed tablet rejects writes with a retryable
  /// error until unsealed or closed. NotFound when the tablet is unknown.
  Status SealTablet(const std::string& uid);
  Status UnsealTablet(const std::string& uid);
  /// Drops a tablet this server no longer owns (migrated away or replaced
  /// by split children). Idempotent; the log and checkpoint files stay in
  /// the DFS — only the in-memory index is released.
  Status CloseTablet(const std::string& uid);
  std::vector<TabletDescriptor> Tablets() const;

  // -- Load reporting (src/balance/) ------------------------------------

  /// Drains every tablet's op/byte counters into a report stamped with the
  /// current virtual time. Each call returns the window since the previous
  /// one.
  balance::LoadReport CollectLoadReport();

  /// A key that splits the tablet's live keyset roughly in half (strictly
  /// inside its range). NotFound when the tablet holds fewer than two
  /// distinct keys or no interior key exists.
  Result<std::string> SuggestSplitKey(const std::string& uid);

  // -- Writes (§3.6.1-§3.6.3, §3.7.2) ------------------------------------
  //
  // Every write follows one rule: append the records to the log, wait
  // until they are durable, then make them visible. Only after Publish
  // returns OK may a write be acknowledged (invariant I1: acked writes
  // survive crashes).

  /// Checks admission and every op's tablet (known, not sealed), draws
  /// timestamps, and enqueues the ops' DATA/INVALIDATE records (plus the
  /// trailing record `txn.mark` names) into group commit, followed by a
  /// COMMIT or ABORT record for every unrecorded decision. Nothing is
  /// visible yet. Admission never sheds a batch without ops: it only
  /// records transactions that are already decided.
  Result<MutationBatch> Submit(std::vector<WriteOp> ops,
                               log::AckMode ack = log::AckMode::kQuorum,
                               const TxnStamp& txn = {});
  /// Waits until the batch's records are durable and fills its `ptrs`. A
  /// failed batch hands its decisions back to the unrecorded ones.
  Status Wait(MutationBatch* batch);
  /// Applies the ops, in op order, to the index and the read buffer. Call
  /// only after Wait (for a cross-server transaction: after every
  /// participant's PREPARE is durable).
  Status Publish(const MutationBatch& batch);

  /// Appends a COMMIT or ABORT record per decision, with any decision an
  /// earlier append failed to record, so this log and its tailers see the
  /// outcome. A decision whose append fails is kept, counted
  /// (`tablet.decision_append_failures`) and appended again with this
  /// server's next batch; a crash drops it, and the restart resolves it.
  Status RecordDecisions(std::vector<LogApplier::Decision> decisions,
                         log::AckMode ack);
  /// Whether a coordinator may still act on the transaction that logged a
  /// write of `key` into the tablet `tablet` names: the cell's write lock
  /// is held (one coordination read). The in-doubt resolver leaves such a
  /// transaction pending.
  bool CoordinatorActive(const log::LogKey& tablet, const std::string& key);

  Status Put(const std::string& tablet_uid, const Slice& key,
             const Slice& value, log::AckMode ack = log::AckMode::kQuorum) {
    return Write({{tablet_uid, key.ToString(), value.ToString(), false}}, ack);
  }
  Status Delete(const std::string& tablet_uid, const Slice& key,
                log::AckMode ack = log::AckMode::kQuorum) {
    return Write({{tablet_uid, key.ToString(), "", true}}, ack);
  }

  // -- Reads (§3.6.4) ---------------------------------------------------

  /// The version of `key` visible at `as_of` (tablet::ReadPoint).
  Result<ReadValue> Get(const std::string& tablet_uid, const Slice& key,
                        uint64_t as_of = index::kLatest);
  /// All versions of a key, newest first (multiversion access).
  Result<std::vector<ReadRow>> GetVersions(const std::string& tablet_uid,
                                           const Slice& key);
  /// Latest committed version of a key (0 when absent) — MVOCC validation.
  Result<uint64_t> LatestVersion(const std::string& tablet_uid,
                                 const Slice& key);
  /// Full scan with index version check (§3.6.4): returns the number of
  /// records whose stored version is current.
  Result<uint64_t> FullScanCount(const std::string& tablet_uid);

  // -- Scan pushdown (src/query/, ROADMAP item 4) -----------------------

  /// The only range read: evaluates a pushed-down QueryPlan (tablet::
  /// ReadRange) and returns filtered/projected column batches (whole rows
  /// for a match-all plan, see RowsFromBatches) or aggregate partials. The
  /// plan arrives as a value, like every simulated request; value fetches
  /// go through the read buffer first, so warm scans skip the log entirely.
  /// Historical executions (`options.as_of`) never populate the buffer — it
  /// holds only latest versions.
  Result<query::TabletResult> ExecuteScan(
      const std::string& tablet_uid, const query::QueryPlan& plan,
      const query::ExecOptions& options = {});

  // -- Maintenance -------------------------------------------------------

  /// Persists every hosted tablet's index with the log position and next
  /// LSN they cover, as one checkpoint file (§3.8).
  Status Checkpoint();
  /// Log compaction (§3.6.5): drops uncommitted/invalidated/obsolete
  /// entries, clusters the survivors by (table, column group, key,
  /// timestamp) into sorted segments, swings index pointers, reclaims the
  /// inputs, and checkpoints.
  Status CompactLog(const CompactionOptions& options = {},
                    CompactionStats* stats = nullptr);

  // -- Introspection -----------------------------------------------------

  int server_id() const { return options_.server_id; }
  std::string log_dir() const;
  static std::string LogDirFor(uint32_t instance);
  std::string checkpoint_dir() const;
  static std::string CheckpointDirFor(int server_id);
  log::LogPosition LogPosition() const { return writer_->Position(); }
  uint64_t log_bytes_written() const { return writer_->bytes_written(); }
  ReadBuffer* read_buffer() { return &buffer_; }
  Tablet* FindTablet(const std::string& uid);
  /// The hosted tablet of (table, column group) whose key range contains
  /// `key`, or nullptr. After a split the parent's uid routes nowhere; log
  /// records written under the parent's packed id reach the covering child
  /// through this lookup. Tablets with a fully unbounded range are skipped
  /// unless their uid was probed directly (they are recovery placeholders).
  Tablet* FindTabletCovering(uint32_t table_id, uint32_t column_group,
                             const Slice& key);
  /// Reader over a log instance's segments (own or adopted), created
  /// lazily; exposed for recovery, compaction and diagnostics.
  log::LogReader* ReaderFor(uint32_t instance);
  coord::CoordinationService* coord() { return coord_; }
  dfs::Dfs* dfs() { return dfs_; }
  const TabletServerOptions& options() const { return options_; }
  /// Front-door admission control (test aid: local quotas, queue
  /// introspection).
  qos::AdmissionController* admission() { return &admission_; }

 private:
  friend Status RunRecovery(TabletServer* server, RecoveryStats* stats,
                            std::vector<LogApplier::Decision>* decisions);
  friend Status WriteServerCheckpoint(TabletServer* server);
  friend Status RunCompaction(TabletServer* server,
                              const CompactionOptions& options,
                              CompactionStats* stats);

  Result<std::unique_ptr<index::MultiVersionIndex>> NewIndex(
      const std::string& uid);
  /// tablet::FetchValue through the reader of the entry's log instance.
  Result<std::string> FetchLogValue(const index::IndexEntry& entry) {
    return FetchValue(ReaderFor(entry.ptr.instance), entry);
  }
  /// Submit -> Wait -> Publish of one auto-commit batch.
  Status Write(std::vector<WriteOp> ops, log::AckMode ack);
  /// Adds `decisions` to the unrecorded ones the next batch carries.
  void DeferDecisions(std::vector<LogApplier::Decision> decisions);
  /// Restart fencing: drops recovered tablets whose persisted assignment
  /// names another server (they were adopted while this process was down;
  /// serving the stale copies would fork history).
  void DropUnownedTablets();
  /// Write timestamp for auto-commit operations, drawn from a locally cached
  /// block reserved at the timestamp authority.
  uint64_t NextLocalTimestamp();
  /// Discards the cached timestamp block if it does not extend past `ts`.
  /// Tablet adoption must call this with the adopted history's newest write
  /// timestamp: the dead owner may have drawn later blocks than the block
  /// this server is still consuming, and issuing a smaller timestamp would
  /// make new writes invisible behind the adopted versions.
  void AdvanceTimestampsBeyond(uint64_t ts);

  TabletServerOptions options_;  // fixed after construction
  dfs::Dfs* const dfs_;
  coord::CoordinationService* const coord_;
  // Internally synchronized (kQosAdmission); gates every front door before
  // any server state is touched.
  qos::AdmissionController admission_;
  // Set in the constructor; the DFS adapter is internally synchronized.
  std::unique_ptr<FileSystem> fs_;  // DFS adapter bound to this node

  std::atomic<bool> running_{false};
  // Written by Start/Stop/Crash only (the lifecycle is single-threaded);
  // data-path threads never touch the session.
  coord::SessionId session_ = 0;

  // Serializes checkpoints: each writes and renames the same DFS file.
  OrderedMutex checkpoint_mu_{lockrank::kTabletServerCheckpoint,
                              "tablet.server.checkpoint"};
  mutable OrderedMutex tablets_mu_{lockrank::kTabletServerTablets,
                                 "tablet.server.tablets"};
  // Values are handed out as raw Tablet* for use off-lock: a tablet object
  // stays alive until CloseTablet/Crash, and Tablet is internally
  // synchronized (atomics over an internally synchronized index).
  std::map<std::string, std::unique_ptr<Tablet>> tablets_
      GUARDED_BY(tablets_mu_);

  // Set in Start() before data-path threads exist; LogWriter is internally
  // synchronized.
  std::unique_ptr<log::LogWriter> writer_;
  OrderedMutex readers_mu_{lockrank::kTabletServerReaders,
                         "tablet.server.readers"};
  // Values are stable: an opened reader lives until Stop/Crash, and
  // LogReader is internally synchronized, so ReaderFor returns raw
  // pointers for use off-lock.
  std::map<uint32_t, std::unique_ptr<log::LogReader>> readers_
      GUARDED_BY(readers_mu_);
  ReadBuffer buffer_;  // internally synchronized (its own ranked mu_)

  OrderedMutex ts_mu_{lockrank::kTabletServerTimestamps,
                    "tablet.server.timestamps"};
  uint64_t ts_next_ GUARDED_BY(ts_mu_) = 0;
  uint64_t ts_limit_ GUARDED_BY(ts_mu_) = 0;

  OrderedMutex decisions_mu_{lockrank::kTabletServerDecisions,
                             "tablet.server.decisions"};
  // Transaction decisions whose COMMIT/ABORT append failed; the next
  // Submit takes them all into its batch.
  std::vector<LogApplier::Decision> unrecorded_ GUARDED_BY(decisions_mu_);
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_TABLET_SERVER_H_

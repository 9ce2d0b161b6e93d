// Read-replica tablet servers (compute/storage disaggregation over the
// shared log): a ReplicaServer owns no tablets and writes nothing. It seeds
// each replicated tablet from the owner's checkpoint (the same filtered
// reload tablet adoption uses, without taking ownership or sealing
// anything), then tails the owner's log through a per-tablet TailCursor
// feeding the shared committed-record applier (src/tablet/log_applier.h),
// and serves MVCC snapshot reads at min(requested timestamp, applied
// watermark) through the same read path as the primary
// (src/tablet/read_path.h: read buffer, index, one log seek). Reads are
// rejected with a retryable Unavailable when the replica's last sync is
// older than the caller's staleness bound, so clients fall back to the
// primary through their normal retry policy.
//
// Because the log *is* the database, replicas are soft state end to end: a
// crashed replica rebuilds from the DFS (checkpoint + log tail) and
// converges to the same index the primary serves — no replica-side
// durability, no write-path changes, no quorum.

#ifndef LOGBASE_REPLICA_REPLICA_SERVER_H_
#define LOGBASE_REPLICA_REPLICA_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dfs/dfs.h"
#include "src/index/multiversion_index.h"
#include "src/log/log_reader.h"
#include "src/log/tail_cursor.h"
#include "src/query/executor.h"
#include "src/sim/sim_context.h"
#include "src/tablet/log_applier.h"
#include "src/tablet/read_buffer.h"
#include "src/tablet/schema.h"
#include "src/tablet/tablet_server.h"

#include "src/util/ordered_mutex.h"

namespace logbase::replica {

struct ReplicaServerOptions {
  /// Fleet-wide replica id (not a tablet-server id; the two id spaces are
  /// disjoint — replicas never appear in /servers).
  int replica_id = 0;
  /// The machine this replica runs on (network/DFS charging).
  int node = 0;
  size_t read_buffer_bytes = 32ull << 20;
  /// Multi-tenant QoS at the replica front door (src/qos/): disabled by
  /// default.
  qos::AdmissionOptions admission;
};

class ReplicaServer {
 public:
  /// `coord` may be null: quota znodes are then invisible and only locally
  /// installed quotas (admission()->SetLocal) apply.
  ReplicaServer(ReplicaServerOptions options, dfs::Dfs* dfs,
                coord::CoordinationService* coord = nullptr);

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  Status Start();
  /// Graceful shutdown. Replicas hold no durable state, so stopping and
  /// crashing both just drop the in-memory indexes; a restarted replica is
  /// reseeded by the master (ReseedReplica).
  Status Stop();
  void Crash();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // -- Replication management (driven by the master) ---------------------

  /// Attaches (or re-seeds) a replicated tablet: loads the owner's
  /// checkpointed index entries filtered to the descriptor's range, then
  /// positions a log cursor at the checkpoint and catches up to the log end.
  Status AddTablet(const tablet::TabletDescriptor& descriptor,
                   uint32_t source_instance);
  /// Detaches a replicated tablet (source migrated/split/reassigned).
  /// Idempotent.
  Status RemoveTablet(const std::string& uid);
  std::vector<tablet::TabletDescriptor> Tablets() const;
  int NumTablets() const;

  /// Polls every tablet's log cursor once, applying all records appended
  /// since the previous tick (re-seeding any tablet whose log pointers went
  /// stale under it). The driver (cluster harness, bench, nemesis) decides the
  /// cadence.
  Status TickTailers();

  // -- Snapshot reads ----------------------------------------------------

  /// MVCC read through tablet::ReadPoint at min(`as_of`, applied
  /// watermark); index::kLatest asks for the newest version. Unavailable
  /// (retryable) when virtual time since the last log sync exceeds
  /// `max_staleness_us` (0 = unbounded). `snapshot_ts` (optional) reports
  /// the snapshot actually served.
  Result<tablet::ReadValue> Get(const std::string& uid, const Slice& key,
                                uint64_t as_of, int64_t max_staleness_us,
                                uint64_t* snapshot_ts = nullptr);

  /// Scan pushdown at the replica (the Taurus-style analytics-over-the-log
  /// tier): evaluates the QueryPlan through tablet::ReadRange at
  /// min(`options.as_of`, applied watermark), under the same staleness gate
  /// as Get. As on the primary, rows buffered at the indexed version skip
  /// the log. Aggregation partials computed here merge bit-identically
  /// with primary partials — the snapshot bound, not the serving tier,
  /// decides the answer.
  Result<query::TabletResult> ExecuteScan(
      const std::string& uid, const query::QueryPlan& plan,
      int64_t max_staleness_us, const query::ExecOptions& options = {},
      uint64_t* snapshot_ts = nullptr);

  // -- Introspection -----------------------------------------------------

  /// The tablet's applied watermark; NotFound when not replicated here.
  Result<uint64_t> Watermark(const std::string& uid) const;
  /// Virtual microseconds since the tablet's last completed log sync.
  Result<int64_t> StalenessUs(const std::string& uid) const;
  /// Every entry of the tablet's replica index in VisitAll order (lets
  /// tests compare it against a primary's index).
  Result<std::vector<index::IndexEntry>> IndexEntries(
      const std::string& uid) const;
  int replica_id() const { return options_.replica_id; }
  int node() const { return options_.node; }
  qos::AdmissionController* admission() { return &admission_; }

 private:
  /// One replicated tablet: its seeded index, a cursor over the source log
  /// and the applier that routes the cursor's records into the index.
  struct ReplicatedTablet {
    /// `seeded` is complete up to the cursor's start position and holds
    /// versions up to `seeded_max_ts`.
    ReplicatedTablet(const tablet::TabletDescriptor& descriptor,
                     uint32_t source_instance,
                     std::unique_ptr<index::MultiVersionIndex> seeded,
                     uint64_t seeded_max_ts, log::LogReader* reader,
                     tablet::LogApplier::OnApply on_apply);
    // The applier's route holds this object's address.
    ReplicatedTablet(const ReplicatedTablet&) = delete;
    ReplicatedTablet& operator=(const ReplicatedTablet&) = delete;

    const tablet::TabletDescriptor descriptor;
    const uint32_t source_instance;
    const std::unique_ptr<index::MultiVersionIndex> index;
    log::TailCursor cursor;
    tablet::LogApplier applier;
    /// Virtual time of the last poll that reached the end of the log (the
    /// staleness reference point).
    sim::VirtualTime last_sync_us = 0;
    /// Set when a log pointer no longer resolves (the source compacted the
    /// segment away); the next tick rebuilds from the fresh checkpoint.
    bool needs_reseed = false;
  };

  /// `checkpoints` lets the seeds of one call read each source's
  /// checkpoint once.
  Status SeedTabletLocked(const tablet::TabletDescriptor& descriptor,
                          uint32_t source_instance,
                          tablet::CheckpointCache* checkpoints) REQUIRES(mu_);
  /// Applies every record appended since the tablet's last poll and
  /// restarts its staleness clock.
  Status PollLocked(ReplicatedTablet* t) REQUIRES(mu_);
  log::LogReader* ReaderForLocked(uint32_t instance) REQUIRES(mu_);
  /// Tablet lookup, staleness gate and snapshot clamp of Get and
  /// ExecuteScan: `snapshot_ts` (optional) gets min(`as_of`, watermark),
  /// `snapshot` the timestamp to read at (`as_of` itself when no pending
  /// transaction holds the watermark back).
  Result<ReplicatedTablet*> SnapshotLocked(const std::string& uid,
                                           uint64_t as_of,
                                           int64_t max_staleness_us,
                                           uint64_t* snapshot,
                                           uint64_t* snapshot_ts)
      REQUIRES(mu_);
  /// tablet::FetchValue, flagging the tablet for reseed on a stale
  /// pointer. Runs only inside Get/ExecuteScan under mu_, a proof the
  /// analysis cannot follow across the read path's std::function boundary.
  Result<std::string> FetchValueLocked(ReplicatedTablet* t,
                                       const index::IndexEntry& entry)
      NO_THREAD_SAFETY_ANALYSIS;

  ReplicaServerOptions options_;  // fixed after construction
  dfs::Dfs* const dfs_;
  // Internally synchronized; gates Get/ExecuteScan before mu_.
  qos::AdmissionController admission_;
  // Set in the constructor; the DFS adapter is internally synchronized.
  std::unique_ptr<FileSystem> fs_;  // DFS adapter bound to this node

  std::atomic<bool> running_{false};

  mutable OrderedMutex mu_{lockrank::kReplicaServerTablets,
                           "replica.server.tablets"};
  // Tablet state (cursor and applier are not internally synchronized) is
  // only touched under mu_ — watermark/staleness reads included, so a
  // mid-poll reader cannot observe a torn cursor.
  std::map<std::string, std::unique_ptr<ReplicatedTablet>> tablets_
      GUARDED_BY(mu_);
  std::map<uint32_t, std::unique_ptr<log::LogReader>> readers_
      GUARDED_BY(mu_);
  tablet::ReadBuffer buffer_;  // internally synchronized (its own mu_)
};

}  // namespace logbase::replica

#endif  // LOGBASE_REPLICA_REPLICA_SERVER_H_

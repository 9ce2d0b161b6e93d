// MVOCC transaction management (paper §3.7): snapshot reads, optimistic
// execution, validation with distributed write locks, commit-timestamped
// group-commit persistence and post-commit index publication. Provides
// snapshot isolation: all ANSI anomalies except write skew are prevented;
// the first-committer-wins rule is enforced by holding write locks across
// validation + write phase. A commit makes one coordination round trip on
// its critical path: the multi that takes the lock set also draws the
// commit timestamp, so the stamp is drawn under the locks, before
// validation; the locks are released off the critical path.
//
// Single-server transactions commit with one group-committed log append
// (data + COMMIT together). Multi-server transactions run a two-phase
// commit: data records on every participant first, COMMIT records after all
// succeeded, each phase one concurrent round over the participants, issued
// in server-id order — visibility requires the COMMIT record plus index
// publication, so a failure between phases leaves the transaction invisible
// everywhere. Both go through the tablet servers' one write surface
// (Submit / Wait / Publish).

#ifndef LOGBASE_TXN_TRANSACTION_MANAGER_H_
#define LOGBASE_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "src/coord/coordination_service.h"
#include "src/coord/lock_manager.h"
#include "src/tablet/tablet_server.h"
#include "src/txn/transaction.h"

namespace logbase::txn {

struct TransactionManagerOptions {
  /// Default snapshot isolation. When true, commit additionally locks and
  /// validates the *read* set (the paper's §3.7.1 option: "if strict
  /// serializability is required, read locks also need to be acquired"),
  /// which turns write-skew cycles into aborts at the cost of read-write
  /// blocking.
  bool serializable = false;
};

class TransactionManager {
 public:
  /// `resolver` maps a tablet uid to the server currently hosting it (the
  /// client's routing table).
  using ServerResolver =
      std::function<tablet::TabletServer*(const std::string& tablet_uid)>;

  TransactionManager(coord::CoordinationService* coord, int client_node,
                     ServerResolver resolver,
                     TransactionManagerOptions options = {});

  std::unique_ptr<Transaction> Begin();

  /// Snapshot read (sees the transaction's own buffered writes first).
  /// Records the observed version for validation.
  Result<std::string> Read(Transaction* txn, const std::string& tablet_uid,
                           const Slice& key);

  /// Buffers an update. The current version is recorded as the read version
  /// if the cell was not read before (no blind writes, §3.7.1).
  Status Write(Transaction* txn, const std::string& tablet_uid,
               const Slice& key, const Slice& value);
  Status Delete(Transaction* txn, const std::string& tablet_uid,
                const Slice& key);

  /// Validates and commits. Returns Status::Aborted on conflict (the
  /// transaction should be retried by the application). `ack` picks the
  /// replication acknowledgement level for the commit's log appends:
  /// kQuorum returns once a majority of log replicas are durable.
  Status Commit(Transaction* txn,
                log::AckMode ack = log::AckMode::kQuorum);

  void Abort(Transaction* txn);

 private:
  /// "Locked" here means the transaction's *distributed* write locks (znode
  /// leases, §3.7.1) are held — a protocol invariant the compile-time
  /// thread-safety analysis cannot express; it covers OrderedMutex
  /// capabilities only.
  Status ValidateLocked(Transaction* txn);
  /// Buffers a write or delete, charging the bookkeeping every transactional
  /// operation pays and observing the overwritten version.
  Status Buffer(Transaction* txn, const std::string& tablet_uid,
                const Slice& key, BufferedWrite write);
  Status PersistAndPublish(Transaction* txn, log::AckMode ack);

  coord::CoordinationService* const coord_;
  const int client_node_;
  const TransactionManagerOptions options_;
  ServerResolver resolver_;
  coord::LockManager locks_;
  coord::SessionId session_;
  std::atomic<uint64_t> next_txn_id_{1};
};

}  // namespace logbase::txn

#endif  // LOGBASE_TXN_TRANSACTION_MANAGER_H_

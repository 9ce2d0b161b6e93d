#include "src/txn/transaction_manager.h"

#include <map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/costs.h"
#include "src/sim/fanout.h"
#include "src/txn/lock_table.h"
#include "src/util/logging.h"

namespace logbase::txn {

namespace {

obs::Counter* TxnCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}

}  // namespace

TransactionManager::TransactionManager(coord::CoordinationService* coord,
                                       int client_node,
                                       ServerResolver resolver,
                                       TransactionManagerOptions options)
    : coord_(coord),
      client_node_(client_node),
      options_(options),
      resolver_(std::move(resolver)),
      locks_(coord) {
  session_ = coord_->CreateSession(client_node_);
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  static obs::Counter* begun = TxnCounter("txn.begun");
  begun->Add();
  // The snapshot is the latest issued timestamp: every transaction that
  // committed before Begin is visible.
  return std::make_unique<Transaction>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed),
      coord_->LatestTimestamp());
}

Result<std::string> TransactionManager::Read(Transaction* txn,
                                             const std::string& tablet_uid,
                                             const Slice& key) {
  sim::ChargeCpu(sim::costs::kTxnBookkeepingUs);
  TxnCell cell{tablet_uid, key.ToString()};
  // Read-your-own-writes.
  if (const BufferedWrite* own = txn->FindWrite(cell)) {
    if (own->is_delete) return Status::NotFound("deleted in this txn");
    return own->value;
  }

  tablet::TabletServer* server = resolver_(tablet_uid);
  if (server == nullptr) return Status::Unavailable("no server for tablet");
  auto read = server->Get(tablet_uid, key, txn->snapshot_ts());
  if (read.ok()) {
    txn->RecordRead(cell, read->timestamp);
    return std::move(read->value);
  }
  if (read.status().IsNotFound()) {
    txn->RecordRead(cell, 0);
  }
  return read.status();
}

Status TransactionManager::Write(Transaction* txn,
                                 const std::string& tablet_uid,
                                 const Slice& key, const Slice& value) {
  return Buffer(txn, tablet_uid, key, BufferedWrite{false, value.ToString()});
}

Status TransactionManager::Delete(Transaction* txn,
                                  const std::string& tablet_uid,
                                  const Slice& key) {
  return Buffer(txn, tablet_uid, key, BufferedWrite{true, ""});
}

Status TransactionManager::Buffer(Transaction* txn,
                                  const std::string& tablet_uid,
                                  const Slice& key, BufferedWrite write) {
  sim::ChargeCpu(sim::costs::kTxnBookkeepingUs);
  TxnCell cell{tablet_uid, key.ToString()};
  if (txn->FindReadVersion(cell) == nullptr) {
    // No blind writes: observe the version being overwritten so validation
    // can detect a concurrent committer.
    tablet::TabletServer* server = resolver_(tablet_uid);
    if (server == nullptr) return Status::Unavailable("no server for tablet");
    auto version = server->LatestVersion(tablet_uid, key);
    if (!version.ok()) return version.status();
    txn->RecordRead(cell, *version);
  }
  txn->BufferWrite(cell, std::move(write));
  return Status::OK();
}

Status TransactionManager::ValidateLocked(Transaction* txn) {
  // First-committer-wins: if any record in the write set changed since this
  // transaction observed it, a concurrent transaction committed first.
  // Under the serializable option the whole read set is validated too,
  // eliminating write skew (rw-antidependency cycles).
  for (const auto& [cell, observed] : txn->read_versions()) {
    if (!options_.serializable && txn->FindWrite(cell) == nullptr) {
      continue;  // snapshot isolation: reads outside the write set pass
    }
    tablet::TabletServer* server = resolver_(cell.tablet_uid);
    if (server == nullptr) return Status::Unavailable("no server for tablet");
    auto current = server->LatestVersion(cell.tablet_uid, Slice(cell.key));
    if (!current.ok()) return current.status();
    if (*current != observed) {
      return Status::Aborted("conflict on " + cell.key);
    }
  }
  return Status::OK();
}

Status TransactionManager::PersistAndPublish(Transaction* txn,
                                             log::AckMode ack) {
  // One mutation batch per participant server, keyed by server id so the
  // 2PC append order is the same in every run.
  struct Participant {
    tablet::TabletServer* server = nullptr;
    std::vector<tablet::WriteOp> ops;  // moved into `batch` by Submit
    tablet::MutationBatch batch;
  };
  std::map<int, Participant> participants;
  for (const auto& [cell, write] : txn->writes()) {
    tablet::TabletServer* server = resolver_(cell.tablet_uid);
    if (server == nullptr) return Status::Unavailable("no server for tablet");
    Participant& p = participants[server->server_id()];
    p.server = server;
    p.ops.push_back(tablet::WriteOp{cell.tablet_uid, cell.key, write.value,
                                    write.is_delete});
  }

  // Fast path: one participant writes data + COMMIT in one group-committed
  // batch (§3.7.2). 2PC: phase one writes the data records everywhere,
  // phase two the COMMIT records; a failure before every COMMIT is durable
  // leaves the transaction invisible everywhere. Each phase is one
  // concurrent round: every participant's append is a branch, issued in
  // server-id order, and the round ends when the last one is durable. The
  // first participant that fails ends the round; its time still counts.
  tablet::TxnStamp stamp{txn->id(), txn->commit_ts(),
                         /*commit=*/participants.size() == 1};
  auto round = [&](auto append) {
    sim::Fanout fanout;
    Status status;
    for (auto& [id, p] : participants) {
      status = fanout.Run([&] { return append(p); });
      if (!status.ok()) break;
    }
    fanout.Join();
    return status;
  };
  LOGBASE_RETURN_NOT_OK(round([&](Participant& p) -> Status {
    auto batch = p.server->Submit(std::move(p.ops), ack, stamp);
    if (!batch.ok()) return batch.status();
    LOGBASE_RETURN_NOT_OK(p.server->Wait(&*batch));
    p.batch = std::move(*batch);
    return Status::OK();
  }));
  if (!stamp.commit) {
    stamp.commit = true;
    LOGBASE_RETURN_NOT_OK(round([&](Participant& p) -> Status {
      auto commit = p.server->Submit({}, ack, stamp);
      if (!commit.ok()) return commit.status();
      return p.server->Wait(&*commit);
    }));
  }

  // Publication: only now do the writes become visible to reads.
  for (auto& [id, p] : participants) {
    LOGBASE_RETURN_NOT_OK(p.server->Publish(p.batch));
  }
  return Status::OK();
}

Status TransactionManager::Commit(Transaction* txn, log::AckMode ack) {
  if (txn->state() != Transaction::State::kActive) {
    return Status::InvalidArgument("transaction not active");
  }
  obs::Span span("txn.commit");
  static obs::Counter* committed = TxnCounter("txn.committed");
  // Read-only transactions saw a consistent snapshot: always commit
  // (§3.7.1 — the separation MVOCC buys).
  if (txn->read_only()) {
    txn->set_state(Transaction::State::kCommitted);
    committed->Add();
    return Status::OK();
  }

  std::vector<TxnCell> cells;
  cells.reserve(txn->writes().size());
  for (const auto& [cell, write] : txn->writes()) cells.push_back(cell);
  if (options_.serializable) {
    // Read locks too (§3.7.1): blocks concurrent writers of what we read.
    for (const auto& [cell, version] : txn->read_versions()) {
      cells.push_back(cell);
    }
  }

  // One coordination round trip takes the whole set and draws the commit
  // timestamp; the set is released when `lock_set` leaves scope, after the
  // COMMIT record is durable and the writes are published, on a clock of
  // its own. A transaction that then fails validation burns its stamp.
  OrderedLockSet lock_set(&locks_, session_,
                          "txn-" + std::to_string(txn->id()), client_node_);
  Result<uint64_t> stamp = [&] {
    obs::Span lock_span("txn.lock.wait");
    return lock_set.AcquireAll(cells);
  }();
  if (!stamp.ok()) {
    static obs::Counter* lock_failures = TxnCounter("txn.lock_failures");
    lock_failures->Add();
    Abort(txn);
    return Status::Aborted(stamp.status().message());
  }

  Status valid = ValidateLocked(txn);
  if (!valid.ok()) {
    if (valid.IsAborted()) {
      static obs::Counter* validation_failures =
          TxnCounter("txn.validation_failures");
      validation_failures->Add();
    }
    Abort(txn);
    return valid;
  }

  txn->set_commit_ts(*stamp);
  Status persisted = PersistAndPublish(txn, ack);
  if (!persisted.ok()) {
    Abort(txn);
    return persisted;
  }
  txn->set_state(Transaction::State::kCommitted);
  committed->Add();
  return Status::OK();
}

void TransactionManager::Abort(Transaction* txn) {
  if (txn->state() == Transaction::State::kActive) {
    txn->set_state(Transaction::State::kAborted);
    static obs::Counter* aborted = TxnCounter("txn.aborted");
    aborted->Add();
  }
}

}  // namespace logbase::txn

// Recovery (paper §3.8): reload the index sections of the server's last
// checkpoint file, then redo the log from the checkpoint position through
// the committed-record applier. Redo is an idempotent upsert keyed by (key,
// write timestamp); invalidated entries re-apply deletions, and a
// transaction's entries apply at its COMMIT record and drop at its ABORT.
// A transaction the log leaves undecided is in doubt: its COMMIT append
// was lost, or the server died before the coordinator's decision reached
// it. While its coordinator may still act (its write locks are held) it
// stays pending and the coordinator records the decision. Otherwise the
// applier's resolver decides it by the commit rule, reading the other
// participants' logs named in its PREPARE (a COMMIT anywhere, else an ABORT
// anywhere, else a PREPARE on every participant means committed; no PREPARE
// means it never committed), and the server records each outcome in its own
// log once it is up. Repeated crashes during recovery simply redo and
// resolve again.
//
// Also implements tablet adoption after *permanent* server failures: the new
// owner loads the overlapping sections of the dead server's checkpoint and
// redoes the dead log's tail filtered to the adopted tablet, reading
// everything from the shared DFS, and resolves that tail's in-doubt
// transactions the same way.

#include <algorithm>

#include "src/index/index_checkpoint.h"
#include "src/log/tail_cursor.h"
#include "src/tablet/checkpoint_internal.h"
#include "src/tablet/log_applier.h"
#include "src/tablet/tablet_server.h"
#include "src/util/logging.h"

namespace logbase::tablet {

namespace {

/// Redoes `instance`'s log from `from` through `applier`, counting what it
/// read into `stats`; returns the highest LSN seen. The cursor follows the
/// low write lane only: compaction outputs (gen << 24) are fully covered by
/// the checkpoint the compaction wrote before reclaiming its inputs.
Result<uint64_t> RedoLog(TabletServer* server, uint32_t instance,
                         log::LogPosition from, LogApplier* applier,
                         RecoveryStats* stats) {
  log::TailCursor cursor(server->ReaderFor(instance));
  cursor.Reset(from);
  uint64_t max_lsn = 0;
  auto redone = cursor.Poll([&](const log::LogRecord& record,
                                const log::LogPtr& ptr) -> Status {
    max_lsn = std::max(max_lsn, record.key.lsn);
    if (stats != nullptr) {
      stats->redo_records++;
      stats->redo_bytes += ptr.size;
    }
    return applier->Apply(record, ptr);
  });
  if (!redone.ok()) return redone.status();
  return max_lsn;
}

/// Decides the transactions `applier` left pending after redoing
/// `instance`'s log, counting them into `stats`.
Result<std::vector<LogApplier::Decision>> ResolvePending(
    TabletServer* server, uint32_t instance, LogApplier* applier,
    RecoveryStats* stats) {
  auto decisions = applier->ResolveInDoubt(
      instance, [server](uint32_t other) { return server->ReaderFor(other); },
      [&](const log::LogKey& tablet, const std::string& key) {
        const bool active = server->CoordinatorActive(tablet, key);
        if (active && stats != nullptr) stats->in_doubt_deferred++;
        return active;
      });
  if (!decisions.ok() || stats == nullptr) return decisions;
  for (const LogApplier::Decision& d : *decisions) {
    (d.committed ? stats->in_doubt_committed : stats->in_doubt_aborted)++;
  }
  return decisions;
}

/// Opens every tablet of `server`'s checkpoint and loads its index section,
/// and sets the redo start and the next LSN; without a checkpoint it leaves
/// them as they are. The file's bytes are freed before the redo runs.
Status LoadOwnCheckpoint(FileSystem* fs, TabletServer* server,
                         RecoveryStats* stats, log::LogPosition* start,
                         uint64_t* next_lsn) {
  checkpoint_internal::CheckpointMeta meta;
  Status s = checkpoint_internal::LoadCheckpoint(fs, server->checkpoint_dir(),
                                                 &meta);
  if (s.IsNotFound()) return Status::OK();
  LOGBASE_RETURN_NOT_OK(s);
  *start = meta.position;
  *next_lsn = meta.next_lsn;
  if (stats != nullptr) stats->loaded_checkpoint = true;
  for (const auto& section : meta.tablets) {
    LOGBASE_RETURN_NOT_OK(server->OpenTablet(section.descriptor));
    Tablet* tablet = server->FindTablet(section.descriptor.uid());
    tablet->set_source_instance(section.source_instance);
    Slice entries = section.entries;
    LOGBASE_RETURN_NOT_OK(
        index::DecodeIndexSection(&entries, tablet->index()));
    if (stats != nullptr) {
      stats->checkpoint_entries += tablet->index()->num_entries();
    }
  }
  return Status::OK();
}

}  // namespace

Status RunRecovery(TabletServer* server, RecoveryStats* stats,
                   std::vector<LogApplier::Decision>* decisions) {
  log::LogPosition start{0, 0};
  uint64_t next_lsn = 1;

  LOGBASE_RETURN_NOT_OK(LoadOwnCheckpoint(server->fs_.get(), server, stats,
                                          &start, &next_lsn));

  // Redo the tail of our own log. Records of tablets we have not seen yet
  // (no checkpoint — e.g. first crash before any checkpoint) recreate their
  // tablets on the fly; the master's later OpenTablet is a no-op.
  LogApplier applier(
      [server](const log::LogRecord& record) -> index::MultiVersionIndex* {
        TabletDescriptor d = TabletDescriptor::FromPackedId(
            record.key.table_id, record.key.tablet_id);
        Tablet* tablet = server->FindTablet(d.uid());
        // After a split the parent's uid routes nowhere, but a hosted
        // child's range covers the key: its records belong to that child.
        if (tablet == nullptr) {
          tablet = server->FindTabletCovering(d.table_id, d.column_group,
                                              Slice(record.row.primary_key));
        }
        if (tablet == nullptr) {
          if (!server->OpenTablet(d).ok()) return nullptr;
          tablet = server->FindTablet(d.uid());
        }
        return tablet == nullptr ? nullptr : tablet->index();
      });
  auto max_lsn =
      RedoLog(server, server->server_id(), start, &applier, stats);
  if (!max_lsn.ok()) return max_lsn.status();
  auto resolved =
      ResolvePending(server, server->server_id(), &applier, stats);
  if (!resolved.ok()) return resolved.status();
  *decisions = std::move(*resolved);

  LOGBASE_LOG(kInfo, "server %d recovered: redo from segment %u",
              server->server_id(), start.segment);
  return server->writer_->Open(std::max(next_lsn, *max_lsn + 1));
}

Status TabletServer::AdoptTablet(const TabletDescriptor& descriptor,
                                 uint32_t source_instance,
                                 RecoveryStats* stats) {
  LOGBASE_RETURN_NOT_OK(OpenTablet(descriptor));
  Tablet* tablet = FindTablet(descriptor.uid());
  tablet->set_source_instance(source_instance);

  auto seed = checkpoint_internal::SeedFromCheckpoint(
      fs_.get(), CheckpointDirFor(source_instance), descriptor,
      tablet->index());
  if (!seed.ok()) return seed.status();
  if (stats != nullptr && seed->loaded) {
    stats->loaded_checkpoint = true;
    stats->checkpoint_entries += seed->entries;
  }

  // Redo the source's log tail, filtered to the adopted range (the paper's
  // log split: one shared log, per-tablet extraction).
  LogApplier applier(
      [tablet, &descriptor](const log::LogRecord& record)
          -> index::MultiVersionIndex* {
        return RecordBelongsTo(record, descriptor) ? tablet->index() : nullptr;
      });
  auto redone = RedoLog(this, source_instance, seed->start, &applier, stats);
  if (!redone.ok()) return redone.status();
  auto resolved = ResolvePending(this, source_instance, &applier, stats);
  if (!resolved.ok()) return resolved.status();
  LOGBASE_RETURN_NOT_OK(
      RecordDecisions(std::move(*resolved), log::AckMode::kQuorum));

  // The dead owner drew timestamp blocks this server has not seen; writes
  // issued from a stale local block would sort below the adopted versions
  // and be invisible to latest-reads (a lost acknowledged write).
  uint64_t max_ts = 0;
  tablet->index()->VisitAll([&max_ts](const index::IndexEntry& entry) {
    if (entry.timestamp > max_ts) max_ts = entry.timestamp;
  });
  AdvanceTimestampsBeyond(max_ts);

  LOGBASE_LOG(kInfo, "server %d adopted tablet %s from instance %u",
              server_id(), descriptor.uid().c_str(), source_instance);
  return Status::OK();
}

}  // namespace logbase::tablet

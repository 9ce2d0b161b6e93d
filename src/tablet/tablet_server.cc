#include "src/tablet/tablet_server.h"

#include <algorithm>

#include "src/coord/lock_manager.h"
#include "src/coord/znode_tree.h"
#include "src/index/blink_tree.h"
#include "src/index/lsm_index.h"
#include "src/master/meta_codec.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/costs.h"
#include "src/sim/sim_context.h"
#include "src/tablet/log_applier.h"
#include "src/tablet/stale_route.h"
#include "src/util/logging.h"

namespace logbase::tablet {

namespace {
constexpr uint32_t kTimestampBatch = 4096;
constexpr const char* kServersRoot = "/servers";

obs::Counter* TabletCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}
}  // namespace

// Defined in recovery.cc / checkpoint.cc / compaction.cc.
Status RunRecovery(TabletServer* server, RecoveryStats* stats,
                   std::vector<LogApplier::Decision>* decisions);
Status WriteServerCheckpoint(TabletServer* server);
Status RunCompaction(TabletServer* server, const CompactionOptions& options,
                     CompactionStats* stats);

std::string TabletServer::LogDirFor(uint32_t instance) {
  return "/logbase/logs/" + std::to_string(instance);
}

std::string TabletServer::log_dir() const {
  return LogDirFor(options_.server_id);
}

std::string TabletServer::CheckpointDirFor(int server_id) {
  return "/logbase/checkpoints/" + std::to_string(server_id);
}

std::string TabletServer::checkpoint_dir() const {
  return CheckpointDirFor(options_.server_id);
}

TabletServer::TabletServer(TabletServerOptions options, dfs::Dfs* dfs,
                           coord::CoordinationService* coord)
    : options_(std::move(options)),
      dfs_(dfs),
      coord_(coord),
      admission_(options_.admission, coord, options_.server_id),
      fs_(std::make_unique<dfs::DfsFileSystem>(dfs, options_.server_id)),
      buffer_(options_.read_buffer_bytes, MakeLruPolicy()) {
  writer_ = std::make_unique<log::LogWriter>(
      fs_.get(), log_dir(), options_.server_id, options_.segment_bytes,
      options_.group_commit);
}

TabletServer::~TabletServer() {
  // Destruction can't surface errors; call Stop() explicitly to check the
  // final checkpoint's status.
  if (running()) (void)Stop();
}

Status TabletServer::Start(RecoveryStats* recovery_stats) {
  if (running()) return Status::InvalidArgument("server already running");
  session_ = coord_->CreateSession(options_.server_id);
  // Liveness znode: ephemeral, disappears with the session so the master
  // notices failures.
  coord::ZnodeTree* tree = coord_->znodes();
  if (!tree->Exists(kServersRoot)) {
    // Racing servers both create the root; the loser's "exists" error is
    // the desired state.
    (void)tree->Create(session_, kServersRoot, "",
                       coord::CreateMode::kPersistent);
  }
  auto created = tree->Create(
      session_, std::string(kServersRoot) + "/" +
                    std::to_string(options_.server_id),
      std::to_string(options_.server_id), coord::CreateMode::kEphemeral);
  if (!created.ok()) return created.status();

  // Recovery reloads checkpointed indexes and redoes the log tail, then the
  // writer continues in a fresh segment.
  RecoveryStats local_stats;
  RecoveryStats* stats = recovery_stats != nullptr ? recovery_stats
                                                   : &local_stats;
  std::vector<LogApplier::Decision> decisions;
  {
    obs::Span span("tablet.recovery");
    LOGBASE_RETURN_NOT_OK(RunRecovery(this, stats, &decisions));
  }
  DropUnownedTablets();
  TabletCounter("tablet.recovery.runs")->Add();
  TabletCounter("tablet.recovery.checkpoint_entries")
      ->Add(stats->checkpoint_entries);
  TabletCounter("tablet.recovery.redo_records")->Add(stats->redo_records);
  TabletCounter("tablet.recovery.redo_bytes")->Add(stats->redo_bytes);
  running_.store(true, std::memory_order_release);
  Status recorded =
      RecordDecisions(std::move(decisions), log::AckMode::kQuorum);
  if (!recorded.ok()) running_.store(false, std::memory_order_release);
  return recorded;
}

Status TabletServer::Stop() {
  if (!running()) return Status::OK();
  LOGBASE_RETURN_NOT_OK(Checkpoint());
  coord_->CloseSession(session_);
  running_.store(false, std::memory_order_release);
  return Status::OK();
}

void TabletServer::Crash() {
  running_.store(false, std::memory_order_release);
  coord_->CloseSession(session_);
  {
    MutexLock l(tablets_mu_);
    tablets_.clear();
  }
  {
    MutexLock l(readers_mu_);
    readers_.clear();
  }
  buffer_.Clear();
  {
    MutexLock l(decisions_mu_);
    unrecorded_.clear();
  }
  MutexLock l(ts_mu_);
  ts_next_ = ts_limit_ = 0;
}

void TabletServer::DropUnownedTablets() {
  coord::ZnodeTree* tree = coord_->znodes();
  // Every persisted assignment, for the split-parent check below: a tablet
  // whose own znode vanished but whose range another assignment now covers
  // was replaced by split children while this process was down.
  std::vector<std::pair<TabletDescriptor, int>> all_assignments;
  if (tree->Exists(master::meta::kMetaAssign)) {
    auto uids = tree->GetChildren(master::meta::kMetaAssign);
    if (uids.ok()) {
      for (const std::string& uid : *uids) {
        auto data = tree->Get(master::meta::AssignPath(uid));
        if (!data.ok()) continue;
        int owner = -1;
        TabletDescriptor decoded;
        if (master::meta::DecodeAssignment(Slice(*data), &owner, &decoded)) {
          all_assignments.emplace_back(std::move(decoded), owner);
        }
      }
    }
  }
  int dropped = 0;
  for (const TabletDescriptor& d : Tablets()) {
    std::string path = master::meta::AssignPath(d.uid());
    bool unowned = false;
    if (!tree->Exists(path)) {
      // Never assigned by a master (tests drive OpenTablet directly) —
      // unless a *different* assigned tablet overlaps this one's range, in
      // which case this is a stale pre-split parent.
      for (const auto& [assigned, owner] : all_assignments) {
        if (assigned.uid() != d.uid() && assigned.Overlaps(d)) {
          unowned = true;
          break;
        }
      }
    } else {
      auto data = tree->Get(path);
      if (!data.ok()) continue;
      int owner = -1;
      TabletDescriptor decoded;
      if (!master::meta::DecodeAssignment(Slice(*data), &owner, &decoded)) {
        continue;
      }
      unowned = owner != options_.server_id;
    }
    if (!unowned) continue;
    MutexLock l(tablets_mu_);
    tablets_.erase(d.uid());
    dropped++;
  }
  if (dropped > 0) {
    LOGBASE_LOG(kInfo, "server %d fenced off %d adopted tablets on restart",
                options_.server_id, dropped);
  }
}

Result<std::unique_ptr<index::MultiVersionIndex>> TabletServer::NewIndex(
    const std::string& uid) {
  if (options_.index_kind == index::IndexKind::kBlink) {
    return std::unique_ptr<index::MultiVersionIndex>(
        new index::BlinkTree());
  }
  std::string dir = "/logbase/lsmidx/" + std::to_string(options_.server_id) +
                    "/" + uid;
  auto lsm_index = index::LsmIndex::Open(options_.lsm, fs_.get(), dir);
  if (!lsm_index.ok()) return lsm_index.status();
  return std::unique_ptr<index::MultiVersionIndex>(std::move(*lsm_index));
}

Status TabletServer::OpenTablet(const TabletDescriptor& descriptor) {
  {
    // Idempotent: re-registration after recovery keeps the recovered index.
    MutexLock l(tablets_mu_);
    if (tablets_.count(descriptor.uid()) > 0) return Status::OK();
  }
  auto idx = NewIndex(descriptor.uid());
  if (!idx.ok()) return idx.status();
  auto tablet = std::make_unique<Tablet>(descriptor, std::move(*idx));
  tablet->set_source_instance(options_.server_id);
  MutexLock l(tablets_mu_);
  tablets_[descriptor.uid()] = std::move(tablet);
  return Status::OK();
}

std::vector<TabletDescriptor> TabletServer::Tablets() const {
  MutexLock l(tablets_mu_);
  std::vector<TabletDescriptor> out;
  out.reserve(tablets_.size());
  for (const auto& [uid, tablet] : tablets_) {
    out.push_back(tablet->descriptor());
  }
  return out;
}

Tablet* TabletServer::FindTablet(const std::string& uid) {
  MutexLock l(tablets_mu_);
  auto it = tablets_.find(uid);
  return it == tablets_.end() ? nullptr : it->second.get();
}

Tablet* TabletServer::FindTabletCovering(uint32_t table_id,
                                         uint32_t column_group,
                                         const Slice& key) {
  MutexLock l(tablets_mu_);
  for (auto& [uid, tablet] : tablets_) {
    const TabletDescriptor& d = tablet->descriptor();
    if (d.table_id != table_id || d.column_group != column_group) continue;
    // A fully unbounded range is either a single-range tablet (whose uid a
    // direct probe already matched) or a recovery placeholder; letting it
    // absorb foreign ranges' records would merge tablets.
    if (d.start_key.empty() && d.end_key.empty()) continue;
    if (d.Contains(key)) return tablet.get();
  }
  return nullptr;
}

Status TabletServer::SealTablet(const std::string& uid) {
  Tablet* tablet = FindTablet(uid);
  if (tablet == nullptr) return UnknownTablet();
  tablet->Seal();
  return Status::OK();
}

Status TabletServer::UnsealTablet(const std::string& uid) {
  Tablet* tablet = FindTablet(uid);
  if (tablet == nullptr) return UnknownTablet();
  tablet->Unseal();
  return Status::OK();
}

Status TabletServer::CloseTablet(const std::string& uid) {
  {
    MutexLock l(tablets_mu_);
    if (tablets_.erase(uid) == 0) return Status::OK();  // idempotent
  }
  // The read buffer may cache values of the closed tablet; if this server
  // re-adopts it later, serving them would resurrect pre-migration state.
  // Correctness over cache warmth: drop everything.
  buffer_.Clear();
  LOGBASE_LOG(kInfo, "server %d closed tablet %s", options_.server_id,
              uid.c_str());
  return Status::OK();
}

balance::LoadReport TabletServer::CollectLoadReport() {
  balance::LoadReport report;
  report.server_id = options_.server_id;
  report.generated_at_us = sim::CurrentVirtualTime();
  {
    MutexLock l(tablets_mu_);
    report.tablets.reserve(tablets_.size());
    for (auto& [uid, tablet] : tablets_) {
      Tablet::LoadWindow w = tablet->TakeLoadWindow();
      balance::TabletLoad load;
      load.uid = uid;
      load.read_ops = w.read_ops;
      load.write_ops = w.write_ops;
      load.read_bytes = w.read_bytes;
      load.write_bytes = w.write_bytes;
      report.tablets.push_back(std::move(load));
    }
  }
  TabletCounter("balance.report.collected")->Add();
  return report;
}

Result<std::string> TabletServer::SuggestSplitKey(const std::string& uid) {
  Tablet* tablet = FindTablet(uid);
  if (tablet == nullptr) return UnknownTablet();
  const TabletDescriptor& d = tablet->descriptor();
  std::vector<std::string> keys;
  for (const index::IndexEntry& entry :
       tablet->index()->ScanRange("", "", index::kLatest)) {
    if (keys.empty() || keys.back() != entry.key) keys.push_back(entry.key);
  }
  if (keys.size() < 2) {
    return Status::NotFound("tablet too small to split: " + uid);
  }
  // The median distinct key halves the live keyset; it must fall strictly
  // inside the range so both children are non-degenerate.
  const std::string& candidate = keys[keys.size() / 2];
  if (!d.Contains(Slice(candidate)) || candidate == d.start_key ||
      candidate <= keys.front()) {
    return Status::NotFound("no interior split key for " + uid);
  }
  return candidate;
}

log::LogReader* TabletServer::ReaderFor(uint32_t instance) {
  MutexLock l(readers_mu_);
  auto it = readers_.find(instance);
  if (it != readers_.end()) return it->second.get();
  auto reader = std::make_unique<log::LogReader>(
      fs_.get(), LogDirFor(instance), instance);
  log::LogReader* raw = reader.get();
  readers_[instance] = std::move(reader);
  return raw;
}

uint64_t TabletServer::NextLocalTimestamp() {
  MutexLock l(ts_mu_);
  if (ts_next_ >= ts_limit_) {
    ts_next_ = coord_->ReserveTimestamps(options_.server_id, kTimestampBatch);
    ts_limit_ = ts_next_ + kTimestampBatch;
  }
  return ts_next_++;
}

void TabletServer::AdvanceTimestampsBeyond(uint64_t ts) {
  MutexLock l(ts_mu_);
  if (ts < ts_next_) return;
  if (ts < ts_limit_) {
    ts_next_ = ts + 1;
    return;
  }
  // Force a fresh reservation: the authority's clock is >= every timestamp
  // it ever issued, so the next block starts above `ts`.
  ts_next_ = ts_limit_ = 0;
}

// ---------------------------------------------------------------------------
// Writes: Submit -> Wait -> Publish.
// ---------------------------------------------------------------------------

uint64_t UnpublishedBatches::Add(log::LogPosition floor) {
  MutexLock l(mu_);
  floors_.emplace(next_id_, floor);
  return next_id_++;
}

void UnpublishedBatches::Remove(uint64_t id) {
  MutexLock l(mu_);
  floors_.erase(id);
}

log::LogPosition UnpublishedBatches::Oldest(log::LogPosition position) const {
  MutexLock l(mu_);
  for (const auto& [id, floor] : floors_) {
    position = std::min(position, floor);
  }
  return position;
}

Result<MutationBatch> TabletServer::Submit(std::vector<WriteOp> ops,
                                           log::AckMode ack,
                                           const TxnStamp& txn) {
  if (!running()) return Status::Unavailable("tablet server is down");
  // Admission before any state is touched: a shed write must not have
  // recorded load, drawn timestamps, or enqueued log records (I7).
  const bool marked = txn.mark != TxnMark::kNone;
  const size_t record_count = ops.size() + (marked ? 1 : 0);
  if (!ops.empty()) LOGBASE_RETURN_NOT_OK(admission_.Admit(record_count));
  // Every op's tablet is checked before anything reaches the log, so a
  // refused batch leaves no record behind for recovery to resurrect.
  std::vector<Tablet*> tablets;
  tablets.reserve(ops.size());
  for (const WriteOp& op : ops) {
    Tablet* tablet = FindTablet(op.tablet_uid);
    if (tablet == nullptr) return UnknownTablet();
    if (tablet->sealed()) {
      return TabletSealed(op.tablet_uid);
    }
    tablets.push_back(tablet);
  }

  MutationBatch batch;
  std::vector<log::LogRecord> records;
  records.reserve(record_count);
  batch.timestamps.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); i++) {
    const WriteOp& op = ops[i];
    const TabletDescriptor& d = tablets[i]->descriptor();
    tablets[i]->RecordWrite(op.key.size() + op.value.size());
    const uint64_t ts = txn.txn_id == 0 ? NextLocalTimestamp() : txn.commit_ts;
    batch.timestamps.push_back(ts);
    log::LogRecord record;
    record.type = op.is_delete ? log::LogRecordType::kInvalidate
                               : log::LogRecordType::kData;
    record.key.table_id = d.table_id;
    record.key.tablet_id = d.packed_id();
    record.txn_id = txn.txn_id;
    record.row.primary_key = op.key;
    record.row.column_group = d.column_group;
    record.row.timestamp = ts;
    record.value = op.value;
    record.commit_ts = ts;
    records.push_back(std::move(record));
  }
  if (marked) {
    log::LogRecord mark;
    mark.type = txn.mark == TxnMark::kPrepare ? log::LogRecordType::kPrepare
                                              : log::LogRecordType::kCommit;
    if (txn.mark == TxnMark::kPrepare) {
      mark.value = log::EncodeParticipants(txn.participants);
    }
    mark.txn_id = txn.txn_id;
    mark.commit_ts = txn.commit_ts;
    records.push_back(std::move(mark));
  }
  // Decisions an earlier append lost ride behind the ops and their mark.
  {
    MutexLock l(decisions_mu_);
    batch.decisions.swap(unrecorded_);
  }
  for (const LogApplier::Decision& d : batch.decisions) {
    log::LogRecord decision;
    decision.type = d.committed ? log::LogRecordType::kCommit
                                : log::LogRecordType::kAbort;
    decision.commit_ts = d.commit_ts;
    records.push_back(std::move(decision));
  }
  // The records land at or past the writer's position now; until the batch
  // is published or dropped, checkpoints redo from there.
  batch.floor = UnpublishedFloor(unpublished_,
                                 unpublished_->Add(writer_->Position()));
  // Log first (the log IS the data repository): enqueue into the
  // group-commit batch. Nothing is indexed or acked yet.
  auto ticket = writer_->Submit(&records, ack);
  if (!ticket.ok()) {
    DeferDecisions(std::move(batch.decisions));
    return ticket.status();
  }
  batch.ticket = *ticket;
  batch.ops = std::move(ops);
  return batch;
}

Status TabletServer::Wait(MutationBatch* batch) {
  if (!running()) return Status::Unavailable("tablet server is down");
  Status status = writer_->Wait(batch->ticket, &batch->ptrs);
  if (!status.ok()) {
    static obs::Counter* failures =
        TabletCounter("tablet.decision_append_failures");
    failures->Add(batch->decisions.size());
    DeferDecisions(std::move(batch->decisions));
    return status;
  }
  batch->ptrs.resize(batch->ops.size());  // trailing mark and decisions
  return Status::OK();
}

Status TabletServer::Publish(const MutationBatch& batch) {
  bool checkpoint_due = false;
  for (size_t i = 0; i < batch.ops.size(); i++) {
    const WriteOp& op = batch.ops[i];
    const uint64_t ts = batch.timestamps[i];
    Tablet* tablet = FindTablet(op.tablet_uid);
    if (tablet == nullptr) return UnknownTablet();
    LOGBASE_RETURN_NOT_OK(ApplyToIndex(tablet->index(), op.is_delete,
                                       Slice(op.key), ts, batch.ptrs[i]));
    tablet->RecordUpdate();
    const std::string bkey = BufferKey(op.tablet_uid, Slice(op.key));
    if (op.is_delete) {
      buffer_.Invalidate(bkey);
    } else {
      buffer_.Put(bkey, CachedRecord{ts, op.value});
    }
    // Persist indexes after enough updates (§3.6.1), but only once the
    // whole batch is applied: the checkpoint's log position is past it.
    checkpoint_due |= options_.checkpoint_update_threshold > 0 &&
                      tablet->updates_since_persist() >=
                          options_.checkpoint_update_threshold;
  }
  batch.floor.Release();
  return checkpoint_due ? Checkpoint() : Status::OK();
}

Status TabletServer::Write(std::vector<WriteOp> ops, log::AckMode ack) {
  obs::Span span("tablet.write");
  auto batch = Submit(std::move(ops), ack);
  if (!batch.ok()) return batch.status();
  LOGBASE_RETURN_NOT_OK(Wait(&*batch));
  return Publish(*batch);
}

Status TabletServer::RecordDecisions(
    std::vector<LogApplier::Decision> decisions, log::AckMode ack) {
  if (decisions.empty()) return Status::OK();
  DeferDecisions(std::move(decisions));
  auto batch = Submit({}, ack);
  if (!batch.ok()) return batch.status();
  return Wait(&*batch);
}

void TabletServer::DeferDecisions(std::vector<LogApplier::Decision> decisions) {
  MutexLock l(decisions_mu_);
  unrecorded_.insert(unrecorded_.end(), decisions.begin(), decisions.end());
}

bool TabletServer::CoordinatorActive(const log::LogKey& tablet,
                                     const std::string& key) {
  coord_->ChargeRoundTrip(options_.server_id);
  const std::string cell = coord::LockManager::CellName(
      TabletDescriptor::FromPackedId(tablet.table_id, tablet.tablet_id).uid(),
      key);
  return coord::LockManager(coord_).Holder(Slice(cell)).ok();
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

Result<ReadValue> TabletServer::Get(const std::string& tablet_uid,
                                    const Slice& key, uint64_t as_of) {
  obs::Span span("tablet.get");
  if (!running()) return Status::Unavailable("tablet server is down");
  LOGBASE_RETURN_NOT_OK(admission_.Admit(1));
  Tablet* tablet = FindTablet(tablet_uid);
  if (tablet == nullptr) return UnknownTablet();
  auto read = ReadPoint(*tablet->index(), &buffer_, tablet_uid, key, as_of,
                        [this](const index::IndexEntry& entry) {
                          return FetchLogValue(entry);
                        });
  if (!read.ok()) return read.status();
  tablet->RecordRead(key.size() + read->value.size());
  return read;
}

Result<std::vector<ReadRow>> TabletServer::GetVersions(
    const std::string& tablet_uid, const Slice& key) {
  if (!running()) return Status::Unavailable("tablet server is down");
  LOGBASE_RETURN_NOT_OK(admission_.Admit(1));
  Tablet* tablet = FindTablet(tablet_uid);
  if (tablet == nullptr) return UnknownTablet();

  std::vector<ReadRow> rows;
  for (const index::IndexEntry& entry :
       tablet->index()->GetAllVersions(key)) {
    auto value = FetchLogValue(entry);
    if (!value.ok()) return value.status();
    rows.push_back(ReadRow{entry.key, entry.timestamp, std::move(*value)});
  }
  uint64_t bytes = 0;
  for (const ReadRow& row : rows) bytes += row.key.size() + row.value.size();
  tablet->RecordRead(bytes);
  return rows;
}

Result<query::TabletResult> TabletServer::ExecuteScan(
    const std::string& tablet_uid, const query::QueryPlan& plan,
    const query::ExecOptions& options) {
  obs::Span span("tablet.exec_scan");
  if (!running()) return Status::Unavailable("tablet server is down");
  LOGBASE_RETURN_NOT_OK(admission_.Admit(1));
  Tablet* tablet = FindTablet(tablet_uid);
  if (tablet == nullptr) return UnknownTablet();

  uint64_t scanned_bytes = 0;
  auto result = ReadRange(*tablet->index(), &buffer_, tablet_uid, plan,
                          options.as_of, options.batch_rows,
                          [this](const index::IndexEntry& entry) {
                            return FetchLogValue(entry);
                          },
                          &scanned_bytes);
  if (!result.ok()) return result.status();
  tablet->RecordRead(scanned_bytes);
  return result;
}

Result<uint64_t> TabletServer::FullScanCount(const std::string& tablet_uid) {
  if (!running()) return Status::Unavailable("tablet server is down");
  LOGBASE_RETURN_NOT_OK(admission_.Admit(1));
  Tablet* tablet = FindTablet(tablet_uid);
  if (tablet == nullptr) return UnknownTablet();

  log::LogReader* reader = ReaderFor(tablet->source_instance());
  auto segments = reader->ListSegments();
  if (!segments.ok()) return segments.status();

  uint64_t live = 0;
  for (uint32_t segment : *segments) {
    auto scanner = reader->NewSegmentScanner(segment);
    if (!scanner.ok()) return scanner.status();
    for (; (*scanner)->Valid(); (*scanner)->Next()) {
      const log::LogRecord& record = (*scanner)->record();
      if (record.type != log::LogRecordType::kData) continue;
      if (record.key.table_id != tablet->descriptor().table_id ||
          record.key.tablet_id != tablet->descriptor().packed_id()) {
        continue;
      }
      sim::ChargeCpu(sim::costs::kRecordCodecUs);
      // Version check against the in-memory index (§3.6.4): only records
      // holding the current version count as live.
      auto entry = tablet->index()->GetAsOf(Slice(record.row.primary_key),
                                          index::kLatest);
      if (entry.ok() && entry->timestamp == record.row.timestamp) {
        live++;
      }
    }
    if (!(*scanner)->status().ok()) return (*scanner)->status();
  }
  return live;
}

Result<uint64_t> TabletServer::LatestVersion(const std::string& tablet_uid,
                                             const Slice& key) {
  Tablet* tablet = FindTablet(tablet_uid);
  if (tablet == nullptr) return UnknownTablet();
  auto entry = tablet->index()->GetAsOf(key, index::kLatest);
  if (!entry.ok()) {
    if (entry.status().IsNotFound()) return static_cast<uint64_t>(0);
    return entry.status();
  }
  return entry->timestamp;
}

// ---------------------------------------------------------------------------
// Maintenance entry points (implemented in checkpoint.cc / compaction.cc).
// ---------------------------------------------------------------------------

Status TabletServer::Checkpoint() {
  obs::Span span("tablet.checkpoint");
  Status s = WriteServerCheckpoint(this);
  if (s.ok()) TabletCounter("tablet.checkpoint.count")->Add();
  return s;
}

Status TabletServer::CompactLog(const CompactionOptions& options,
                                CompactionStats* stats) {
  CompactionStats local;
  CompactionStats* out = stats != nullptr ? stats : &local;
  Status s;
  {
    obs::Span span("tablet.compaction");
    s = RunCompaction(this, options, out);
  }
  if (s.ok()) {
    TabletCounter("tablet.compaction.runs")->Add();
    TabletCounter("tablet.compaction.input_records")->Add(out->input_records);
    TabletCounter("tablet.compaction.output_records")
        ->Add(out->output_records);
    TabletCounter("tablet.compaction.dropped_invalidated")
        ->Add(out->dropped_invalidated);
    TabletCounter("tablet.compaction.dropped_uncommitted")
        ->Add(out->dropped_uncommitted);
    TabletCounter("tablet.compaction.dropped_obsolete")
        ->Add(out->dropped_obsolete);
    TabletCounter("tablet.compaction.output_segments")
        ->Add(out->output_segments);
  }
  return s;
}

}  // namespace logbase::tablet

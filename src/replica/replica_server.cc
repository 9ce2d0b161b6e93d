#include "src/replica/replica_server.h"

#include <algorithm>

#include "src/index/blink_tree.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/sim_context.h"
#include "src/tablet/checkpoint_internal.h"
#include "src/tablet/stale_route.h"
#include "src/util/logging.h"

namespace logbase::replica {

namespace {

obs::Counter* ReplicaCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}

}  // namespace

ReplicaServer::ReplicaServer(ReplicaServerOptions options, dfs::Dfs* dfs,
                             coord::CoordinationService* coord)
    : options_(options),
      dfs_(dfs),
      admission_(options_.admission, coord, options_.node),
      fs_(std::make_unique<dfs::DfsFileSystem>(dfs, options_.node)),
      buffer_(options_.read_buffer_bytes, tablet::MakeLruPolicy()) {}

Status ReplicaServer::Start() {
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

Status ReplicaServer::Stop() {
  running_.store(false, std::memory_order_release);
  MutexLock l(mu_);
  tablets_.clear();
  readers_.clear();
  buffer_.Clear();
  return Status::OK();
}

void ReplicaServer::Crash() {
  // Same teardown as Stop: a replica is pure soft state, so a crash and a
  // graceful shutdown lose exactly the same thing (nothing durable).
  (void)Stop();
}

log::LogReader* ReplicaServer::ReaderForLocked(uint32_t instance) {
  auto it = readers_.find(instance);
  if (it != readers_.end()) return it->second.get();
  auto reader = std::make_unique<log::LogReader>(
      fs_.get(), tablet::TabletServer::LogDirFor(instance), instance);
  log::LogReader* raw = reader.get();
  readers_[instance] = std::move(reader);
  return raw;
}

ReplicaServer::ReplicatedTablet::ReplicatedTablet(
    const tablet::TabletDescriptor& descriptor, uint32_t source_instance,
    std::unique_ptr<index::MultiVersionIndex> seeded, uint64_t seeded_max_ts,
    log::LogReader* reader, tablet::LogApplier::OnApply on_apply)
    : descriptor(descriptor),
      source_instance(source_instance),
      index(std::move(seeded)),
      cursor(reader),
      applier(
          [this](const log::LogRecord& record) -> index::MultiVersionIndex* {
            return tablet::RecordBelongsTo(record, this->descriptor)
                       ? this->index.get()
                       : nullptr;
          },
          std::move(on_apply), seeded_max_ts) {}

Status ReplicaServer::SeedTabletLocked(
    const tablet::TabletDescriptor& descriptor, uint32_t source_instance,
    tablet::CheckpointCache* checkpoints) {
  obs::Span span("replica.seed");

  auto seeded =
      std::unique_ptr<index::MultiVersionIndex>(new index::BlinkTree());
  auto checkpoint = checkpoints->Get(
      fs_.get(),
      tablet::TabletServer::CheckpointDirFor(static_cast<int>(source_instance)));
  if (!checkpoint.ok()) return checkpoint.status();
  auto seed = tablet::checkpoint_internal::SeedFromCheckpoint(
      *checkpoint, descriptor, seeded.get());
  if (!seed.ok()) return seed.status();
  uint64_t seeded_max_ts = 0;
  seeded->VisitAll([&seeded_max_ts](const index::IndexEntry& entry) {
    seeded_max_ts = std::max(seeded_max_ts, entry.timestamp);
  });

  // Applied values also land in the read buffer, so replica reads of
  // recently written rows skip the log fetch.
  const std::string uid = descriptor.uid();
  auto t = std::make_unique<ReplicatedTablet>(
      descriptor, source_instance, std::move(seeded), seeded_max_ts,
      ReaderForLocked(source_instance),
      [this, uid](bool is_delete, const std::string& key, uint64_t ts,
                  const std::string& value) {
        if (is_delete) {
          buffer_.Invalidate(tablet::BufferKey(uid, Slice(key)));
        } else {
          buffer_.Put(tablet::BufferKey(uid, Slice(key)),
                      tablet::CachedRecord{ts, value});
        }
      });
  t->cursor.Reset(seed->start);
  // Re-seeding replaces any previous attachment; drop its cached rows so no
  // value from the torn-down index outlives it.
  if (tablets_.count(uid) > 0) buffer_.Clear();
  ReplicatedTablet* attached = t.get();
  tablets_[uid] = std::move(t);
  // Catch up to the log end right away so the tablet is serveable (and its
  // staleness clock starts) without waiting for the first tick.
  return PollLocked(attached);
}

Status ReplicaServer::PollLocked(ReplicatedTablet* t) {
  auto delivered = t->cursor.Poll(
      [t](const log::LogRecord& record, const log::LogPtr& ptr) {
        return t->applier.Apply(record, ptr);
      });
  if (!delivered.ok()) return delivered.status();
  static obs::Counter* applied = ReplicaCounter("replica.tail.records");
  applied->Add(*delivered);
  // Reaching the end of the log makes this tablet current as of "now" — the
  // staleness clock restarts even when nothing new was appended.
  t->last_sync_us = sim::CurrentVirtualTime();
  return Status::OK();
}

Status ReplicaServer::AddTablet(const tablet::TabletDescriptor& descriptor,
                                uint32_t source_instance) {
  if (!running()) return Status::Unavailable("replica server is down");
  MutexLock l(mu_);
  tablet::CheckpointCache checkpoints;
  LOGBASE_RETURN_NOT_OK(
      SeedTabletLocked(descriptor, source_instance, &checkpoints));
  LOGBASE_LOG(kInfo, "replica %d seeded tablet %s from instance %u",
              options_.replica_id, descriptor.uid().c_str(), source_instance);
  return Status::OK();
}

Status ReplicaServer::RemoveTablet(const std::string& uid) {
  MutexLock l(mu_);
  if (tablets_.erase(uid) > 0) buffer_.Clear();
  return Status::OK();
}

std::vector<tablet::TabletDescriptor> ReplicaServer::Tablets() const {
  MutexLock l(mu_);
  std::vector<tablet::TabletDescriptor> out;
  out.reserve(tablets_.size());
  for (const auto& [uid, t] : tablets_) out.push_back(t->descriptor);
  return out;
}

int ReplicaServer::NumTablets() const {
  MutexLock l(mu_);
  return static_cast<int>(tablets_.size());
}

Status ReplicaServer::TickTailers() {
  if (!running()) return Status::Unavailable("replica server is down");
  MutexLock l(mu_);
  // A tick's re-seeds read each source's checkpoint once.
  tablet::CheckpointCache checkpoints;
  for (auto& [uid, t] : tablets_) {
    if (t->needs_reseed) {
      // Copied: re-seeding destroys the tablet the descriptor lives in.
      const tablet::TabletDescriptor descriptor = t->descriptor;
      LOGBASE_RETURN_NOT_OK(
          SeedTabletLocked(descriptor, t->source_instance, &checkpoints));
      continue;  // the re-seed already caught up to the log end
    }
    LOGBASE_RETURN_NOT_OK(PollLocked(t.get()));
  }
  return Status::OK();
}

Result<ReplicaServer::ReplicatedTablet*> ReplicaServer::SnapshotLocked(
    const std::string& uid, uint64_t as_of, int64_t max_staleness_us,
    uint64_t* snapshot, uint64_t* snapshot_ts) {
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) return tablet::UnknownReplicaTablet(uid);
  ReplicatedTablet* t = it->second.get();
  if (max_staleness_us > 0) {
    int64_t staleness = sim::CurrentVirtualTime() - t->last_sync_us;
    if (staleness > max_staleness_us) {
      static obs::Counter* rejected =
          ReplicaCounter("replica.read.staleness_rejected");
      rejected->Add();
      return Status::Unavailable("replica staleness exceeded");
    }
  }
  const uint64_t watermark = t->applier.Watermark();
  if (snapshot_ts != nullptr) *snapshot_ts = std::min(as_of, watermark);
  // A watermark no transaction holds back covers every applied version, so
  // reading at `as_of` sees the same versions and a latest read stays one.
  *snapshot = watermark < t->applier.max_applied_ts()
                  ? std::min(as_of, watermark)
                  : as_of;
  return t;
}

Result<std::string> ReplicaServer::FetchValueLocked(
    ReplicatedTablet* t, const index::IndexEntry& entry) {
  auto value = tablet::FetchValue(ReaderForLocked(entry.ptr.instance), entry);
  if (!value.ok()) {
    // The pointer no longer resolves: the source compacted the segment away
    // since we indexed it. Rebuild from the compaction's checkpoint on the
    // next tick; the caller retries (and falls back to the primary).
    t->needs_reseed = true;
    return Status::Unavailable("replica log pointer stale; reseeding");
  }
  return value;
}

Result<tablet::ReadValue> ReplicaServer::Get(const std::string& uid,
                                             const Slice& key, uint64_t as_of,
                                             int64_t max_staleness_us,
                                             uint64_t* snapshot_ts) {
  obs::Span span("replica.get");
  if (!running()) return Status::Unavailable("replica server is down");
  // Admission before any replica state is touched (same contract as the
  // primary front doors: a shed op never partially applies).
  LOGBASE_RETURN_NOT_OK(admission_.Admit(1));
  MutexLock l(mu_);
  uint64_t snapshot = 0;
  auto t = SnapshotLocked(uid, as_of, max_staleness_us, &snapshot,
                          snapshot_ts);
  if (!t.ok()) return t.status();

  static obs::Counter* served = ReplicaCounter("replica.read.served");
  static obs::HistogramMetric* staleness =
      obs::MetricsRegistry::Global().histogram("replica.read.staleness_us");
  staleness->Observe(static_cast<double>(
      sim::CurrentVirtualTime() - (*t)->last_sync_us));

  auto read = tablet::ReadPoint(
      *(*t)->index, &buffer_, uid, key, snapshot,
      [this, t = *t](const index::IndexEntry& entry) {
        return FetchValueLocked(t, entry);
      });
  if (!read.ok()) return read.status();
  served->Add();
  return read;
}

Result<query::TabletResult> ReplicaServer::ExecuteScan(
    const std::string& uid, const query::QueryPlan& plan,
    int64_t max_staleness_us, const query::ExecOptions& options,
    uint64_t* snapshot_ts) {
  obs::Span span("replica.exec_scan");
  if (!running()) return Status::Unavailable("replica server is down");
  LOGBASE_RETURN_NOT_OK(admission_.Admit(1));
  MutexLock l(mu_);
  uint64_t snapshot = 0;
  auto t = SnapshotLocked(uid, options.as_of, max_staleness_us, &snapshot,
                          snapshot_ts);
  if (!t.ok()) return t.status();

  // Rows the applier hook or a latest read buffered skip the log fetch.
  auto result = tablet::ReadRange(
      *(*t)->index, &buffer_, uid, plan, snapshot, options.batch_rows,
      [this, t = *t](const index::IndexEntry& entry) {
        return FetchValueLocked(t, entry);
      });
  if (!result.ok()) return result.status();
  static obs::Counter* served = ReplicaCounter("replica.read.served");
  served->Add();
  return result;
}

Result<uint64_t> ReplicaServer::Watermark(const std::string& uid) const {
  MutexLock l(mu_);
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) return tablet::UnknownReplicaTablet(uid);
  return it->second->applier.Watermark();
}

Result<int64_t> ReplicaServer::StalenessUs(const std::string& uid) const {
  MutexLock l(mu_);
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) return tablet::UnknownReplicaTablet(uid);
  return sim::CurrentVirtualTime() - it->second->last_sync_us;
}

Result<std::vector<index::IndexEntry>> ReplicaServer::IndexEntries(
    const std::string& uid) const {
  MutexLock l(mu_);
  auto it = tablets_.find(uid);
  if (it == tablets_.end()) return tablet::UnknownReplicaTablet(uid);
  std::vector<index::IndexEntry> entries;
  it->second->index->VisitAll(
      [&entries](const index::IndexEntry& entry) { entries.push_back(entry); });
  return entries;
}

}  // namespace logbase::replica

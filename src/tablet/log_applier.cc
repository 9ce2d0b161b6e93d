#include "src/tablet/log_applier.h"

#include <algorithm>
#include <utility>

namespace logbase::tablet {

bool RecordBelongsTo(const log::LogRecord& record,
                     const TabletDescriptor& descriptor) {
  TabletDescriptor named =
      TabletDescriptor::FromPackedId(record.key.table_id, record.key.tablet_id);
  return named.table_id == descriptor.table_id &&
         named.column_group == descriptor.column_group &&
         descriptor.Contains(Slice(record.row.primary_key));
}

Status ApplyToIndex(index::MultiVersionIndex* index, bool is_delete,
                    const Slice& key, uint64_t timestamp,
                    const log::LogPtr& ptr) {
  if (is_delete) return index->RemoveAllVersions(key);
  return index->Insert(key, timestamp, ptr);
}

LogApplier::LogApplier(Route route, OnApply on_apply, uint64_t seeded_max_ts)
    : route_(std::move(route)),
      on_apply_(std::move(on_apply)),
      max_applied_ts_(seeded_max_ts) {}

Status LogApplier::ApplyOp(index::MultiVersionIndex* index, bool is_delete,
                           const std::string& key, uint64_t timestamp,
                           const log::LogPtr& ptr, const std::string& value) {
  LOGBASE_RETURN_NOT_OK(
      ApplyToIndex(index, is_delete, Slice(key), timestamp, ptr));
  if (on_apply_) on_apply_(is_delete, key, timestamp, value);
  max_applied_ts_ = std::max(max_applied_ts_, timestamp);
  return Status::OK();
}

Status LogApplier::Apply(const log::LogRecord& record,
                         const log::LogPtr& ptr) {
  switch (record.type) {
    case log::LogRecordType::kData:
    case log::LogRecordType::kInvalidate: {
      index::MultiVersionIndex* index = route_(record);
      if (index == nullptr) return Status::OK();
      const bool is_delete = record.type == log::LogRecordType::kInvalidate;
      if (record.txn_id == 0) {
        return ApplyOp(index, is_delete, record.row.primary_key,
                       record.row.timestamp, ptr, record.value);
      }
      PendingTxn& txn = pending_[record.commit_ts];
      if (txn.ops.empty()) txn.tablet = record.key;
      txn.ops.push_back(PendingOp{index, is_delete, record.row.primary_key,
                                  record.row.timestamp, ptr,
                                  on_apply_ ? record.value : std::string()});
      return Status::OK();
    }
    case log::LogRecordType::kPrepare: {
      // Follows its participant's data in the same batch; a transaction
      // none of whose ops routed here has nothing to decide.
      auto it = pending_.find(record.commit_ts);
      if (it == pending_.end()) return Status::OK();
      if (!log::DecodeParticipants(Slice(record.value),
                                   &it->second.participants)) {
        return Status::Corruption("malformed PREPARE participants");
      }
      return Status::OK();
    }
    case log::LogRecordType::kCommit: {
      auto it = pending_.find(record.commit_ts);
      if (it == pending_.end()) return Status::OK();
      for (const PendingOp& op : it->second.ops) {
        LOGBASE_RETURN_NOT_OK(ApplyOp(op.index, op.is_delete, op.key,
                                      op.timestamp, op.ptr, op.value));
      }
      pending_.erase(it);
      return Status::OK();
    }
    case log::LogRecordType::kAbort:
      pending_.erase(record.commit_ts);
      return Status::OK();
    case log::LogRecordType::kBatchHeader:
      // Consumed inside the scanner; never surfaced as a record.
      return Status::OK();
  }
  return Status::OK();
}

Result<std::vector<LogApplier::Decision>> LogApplier::ResolveInDoubt(
    uint32_t instance, const LogReaderFor& reader_for,
    const CoordinatorActive& active) {
  std::vector<Decision> decisions;
  std::map<uint64_t, std::vector<uint32_t>> prepared;
  for (const auto& [commit_ts, txn] : pending_) {
    if (active(txn.tablet, txn.ops.front().key)) continue;
    decisions.push_back(Decision{commit_ts, false});
    if (!txn.participants.empty()) prepared[commit_ts] = txn.participants;
  }
  if (decisions.empty()) return decisions;
  auto committed = DecidePrepared(prepared, instance, reader_for);
  if (!committed.ok()) return committed.status();
  for (Decision& d : decisions) {
    auto it = pending_.find(d.commit_ts);
    d.committed = committed->count(d.commit_ts) > 0;
    if (d.committed) {
      for (const PendingOp& op : it->second.ops) {
        LOGBASE_RETURN_NOT_OK(ApplyOp(op.index, op.is_delete, op.key,
                                      op.timestamp, op.ptr, op.value));
      }
    }
    pending_.erase(it);
  }
  return decisions;
}

Result<std::set<uint64_t>> DecidePrepared(
    const std::map<uint64_t, std::vector<uint32_t>>& prepared,
    uint32_t instance, const LogReaderFor& reader_for) {
  struct Evidence {
    bool commit = false;
    bool abort = false;
    std::set<uint32_t> prepared_on;
  };
  std::map<uint64_t, Evidence> evidence;
  std::set<uint32_t> others;
  for (const auto& [commit_ts, participants] : prepared) {
    evidence[commit_ts].prepared_on.insert(instance);
    for (uint32_t p : participants) {
      if (p != instance) others.insert(p);
    }
  }
  // The scan stops once every transaction met a COMMIT or ABORT: nothing
  // later in any log can change those outcomes.
  size_t open = evidence.size();
  for (auto other = others.begin(); other != others.end() && open > 0;
       ++other) {
    auto scanner = reader_for(*other)->NewScanner();
    if (!scanner.ok()) return scanner.status();
    for (; open > 0 && (*scanner)->Valid(); (*scanner)->Next()) {
      const log::LogRecord& record = (*scanner)->record();
      auto it = evidence.find(record.commit_ts);
      if (it == evidence.end()) continue;
      Evidence& e = it->second;
      switch (record.type) {
        case log::LogRecordType::kCommit:
        case log::LogRecordType::kAbort:
          open -= !e.commit && !e.abort;
          (record.type == log::LogRecordType::kCommit ? e.commit : e.abort) =
              true;
          break;
        case log::LogRecordType::kPrepare:
          e.prepared_on.insert(*other);
          break;
        default:
          break;
      }
    }
    LOGBASE_RETURN_NOT_OK((*scanner)->status());
  }
  std::set<uint64_t> committed;
  for (const auto& [commit_ts, participants] : prepared) {
    const Evidence& e = evidence[commit_ts];
    bool all_prepared = true;
    for (uint32_t p : participants) {
      all_prepared &= e.prepared_on.count(p) > 0;
    }
    if (e.commit || (!e.abort && all_prepared)) committed.insert(commit_ts);
  }
  return committed;
}

uint64_t LogApplier::Watermark() const {
  if (pending_.empty()) return max_applied_ts_;
  // Every op of a pending transaction is versioned at its commit timestamp.
  const uint64_t oldest = pending_.begin()->first;
  if (oldest == 0) return 0;
  return std::min(max_applied_ts_, oldest - 1);
}

}  // namespace logbase::tablet

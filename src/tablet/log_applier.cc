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

LogApplier::LogApplier(Route route, OnApply on_apply, uint64_t seeded_max_ts)
    : route_(std::move(route)),
      on_apply_(std::move(on_apply)),
      max_applied_ts_(seeded_max_ts) {}

Status LogApplier::ApplyOp(index::MultiVersionIndex* index, bool is_delete,
                           const std::string& key, uint64_t timestamp,
                           const log::LogPtr& ptr, const std::string& value) {
  if (is_delete) {
    LOGBASE_RETURN_NOT_OK(index->RemoveAllVersions(Slice(key)));
  } else {
    LOGBASE_RETURN_NOT_OK(index->Insert(Slice(key), timestamp, ptr));
  }
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
      pending_[record.txn_id].push_back(
          PendingOp{index, is_delete, record.row.primary_key,
                    record.row.timestamp, ptr,
                    on_apply_ ? record.value : std::string()});
      return Status::OK();
    }
    case log::LogRecordType::kCommit: {
      auto it = pending_.find(record.txn_id);
      if (it == pending_.end()) return Status::OK();
      for (const PendingOp& op : it->second) {
        LOGBASE_RETURN_NOT_OK(ApplyOp(op.index, op.is_delete, op.key,
                                      op.timestamp, op.ptr, op.value));
      }
      pending_.erase(it);
      return Status::OK();
    }
    case log::LogRecordType::kBatchHeader:
      // Consumed inside the scanner; never surfaced as a record.
      return Status::OK();
  }
  return Status::OK();
}

uint64_t LogApplier::Watermark() const {
  if (pending_.empty()) return max_applied_ts_;
  uint64_t min_pending = ~0ull;
  for (const auto& [txn_id, ops] : pending_) {
    for (const PendingOp& op : ops) {
      min_pending = std::min(min_pending, op.timestamp);
    }
  }
  if (min_pending == 0) return 0;
  return std::min(max_applied_ts_, min_pending - 1);
}

}  // namespace logbase::tablet

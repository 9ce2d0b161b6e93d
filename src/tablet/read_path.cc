#include "src/tablet/read_path.h"

#include <utility>

#include "src/obs/trace.h"
#include "src/query/plan.h"
#include "src/sim/costs.h"
#include "src/sim/sim_context.h"

namespace logbase::tablet {

std::string BufferKey(const std::string& uid, const Slice& key) {
  std::string buffer_key = uid;
  buffer_key.push_back('\0');
  buffer_key.append(key.data(), key.size());
  return buffer_key;
}

Result<std::string> FetchValue(log::LogReader* reader,
                               const index::IndexEntry& entry) {
  obs::Span span("log.read");
  auto record = reader->Read(entry.ptr);
  if (!record.ok()) return record.status();
  sim::ChargeCpu(sim::costs::kRecordCodecUs);
  if (record->row.timestamp != entry.timestamp) {
    return Status::Corruption("index points at wrong record version");
  }
  return std::move(record->value);
}

Result<ReadValue> ReadPoint(const index::MultiVersionIndex& index,
                            ReadBuffer* buffer, const std::string& uid,
                            const Slice& key, uint64_t snapshot,
                            const query::ValueFetcher& fetch) {
  const std::string buffer_key = BufferKey(uid, key);
  CachedRecord cached;
  if (buffer->Get(buffer_key, &cached) && cached.timestamp <= snapshot) {
    return ReadValue{cached.timestamp, std::move(cached.value)};
  }
  Result<index::IndexEntry> entry = [&] {
    obs::Span probe("index.probe");
    return index.GetAsOf(key, snapshot);
  }();
  if (!entry.ok()) return entry.status();
  auto value = fetch(*entry);
  if (!value.ok()) return value.status();
  if (snapshot == index::kLatest) {
    buffer->Put(buffer_key, CachedRecord{entry->timestamp, *value});
  }
  return ReadValue{entry->timestamp, std::move(*value)};
}

Result<query::TabletResult> ReadRange(const index::MultiVersionIndex& index,
                                      ReadBuffer* buffer,
                                      const std::string& uid,
                                      const query::QueryPlan& plan,
                                      uint64_t snapshot, size_t batch_rows,
                                      const query::ValueFetcher& fetch,
                                      uint64_t* row_bytes) {
  std::vector<index::IndexEntry> entries = [&] {
    obs::Span probe("index.probe");
    return index.ScanRange(Slice(plan.start_key), Slice(plan.end_key),
                           snapshot);
  }();
  uint64_t bytes = 0;
  auto buffered_fetch =
      [&](const index::IndexEntry& entry) -> Result<std::string> {
    const std::string buffer_key = BufferKey(uid, Slice(entry.key));
    CachedRecord cached;
    if (buffer->Get(buffer_key, &cached) &&
        cached.timestamp == entry.timestamp) {
      bytes += entry.key.size() + cached.value.size();
      return std::move(cached.value);
    }
    auto value = fetch(entry);
    if (!value.ok()) return value.status();
    bytes += entry.key.size() + value->size();
    if (snapshot == index::kLatest) {
      buffer->Put(buffer_key, CachedRecord{entry.timestamp, *value});
    }
    return value;
  };
  auto result =
      query::ExecuteOverEntries(plan, entries, buffered_fetch, batch_rows);
  if (!result.ok()) return result.status();
  query::RecordScanMetrics(result->stats);
  if (row_bytes != nullptr) *row_bytes += bytes;
  return result;
}

std::vector<ReadRow> RowsFromBatches(
    const std::vector<query::ColumnBatch>& batches) {
  std::vector<ReadRow> rows;
  for (const query::ColumnBatch& batch : batches) {
    const query::BatchColumn* raw = batch.Find(query::kRawValueColumn);
    for (size_t i = 0; i < batch.NumRows(); i++) {
      ReadRow row;
      row.key = batch.keys[i];
      row.timestamp = batch.timestamps[i];
      if (raw != nullptr && raw->present[i] != 0) row.value = raw->cells[i];
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace logbase::tablet

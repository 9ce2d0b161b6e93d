#include "src/query/executor.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/sim/costs.h"
#include "src/sim/sim_context.h"
#include "src/util/coding.h"

namespace logbase::query {

// ---------------------------------------------------------------------------
// Aggregation partials.
// ---------------------------------------------------------------------------

void AggResult::Merge(const AggResult& other) {
  for (const auto& [key, theirs] : other.groups) {
    AggBucket& ours = groups[key];
    ours.count += theirs.count;
    ours.sum += theirs.sum;
    if (theirs.has_minmax) {
      if (!ours.has_minmax) {
        ours.min = theirs.min;
        ours.max = theirs.max;
        ours.has_minmax = true;
      } else {
        if (theirs.min.Compare(ours.min) < 0) ours.min = theirs.min;
        if (theirs.max.Compare(ours.max) > 0) ours.max = theirs.max;
      }
    }
  }
}

uint64_t AggResult::EncodedSize() const {
  uint64_t size = VarintLength(groups.size());
  for (const auto& [key, bucket] : groups) {
    size += VarintLength(key.size()) + key.size();
    size += VarintLength(bucket.count);
    size += 8;  // sum, fixed64
    size += 1;  // has_minmax
    if (bucket.has_minmax) {
      size += bucket.min.EncodedSize() + bucket.max.EncodedSize();
    }
  }
  return size;
}

std::string AggResult::Render(const Aggregation& spec) const {
  std::string out;
  for (const auto& [key, bucket] : groups) {
    out += key;
    out += '\t';
    switch (spec.kind) {
      case Aggregation::Kind::kCount:
        out += std::to_string(bucket.count);
        break;
      case Aggregation::Kind::kSum:
        out += std::to_string(bucket.sum);
        break;
      case Aggregation::Kind::kMin:
      case Aggregation::Kind::kMax: {
        if (!bucket.has_minmax) {
          out += "null";
          break;
        }
        const Value& v =
            spec.kind == Aggregation::Kind::kMin ? bucket.min : bucket.max;
        out += v.kind == Value::Kind::kInt64 ? std::to_string(v.i64) : v.bytes;
        break;
      }
      case Aggregation::Kind::kNone:
        break;
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Columnar evaluation.
// ---------------------------------------------------------------------------

namespace {

/// Gathered evaluation columns for one chunk, looked up by name.
struct ColumnsView {
  const std::vector<BatchColumn>* columns;

  const BatchColumn* Find(const std::string& name) const {
    for (const BatchColumn& column : *columns) {
      if (column.name == name) return &column;
    }
    return nullptr;
  }
};

/// Column-at-a-time predicate evaluation: fills `out` (size n) with the
/// match bit per row. Leaves run one column over the whole chunk; AND/OR
/// combine child bitmaps.
void EvalColumnar(const Predicate& p, const ColumnsView& view, size_t n,
                  std::vector<uint8_t>* out) {
  switch (p.op) {
    case Predicate::Op::kTrue:
      std::fill(out->begin(), out->end(), 1);
      return;
    case Predicate::Op::kAnd: {
      std::fill(out->begin(), out->end(), 1);
      std::vector<uint8_t> child_bits(n);
      for (const Predicate& child : p.children) {
        EvalColumnar(child, view, n, &child_bits);
        for (size_t i = 0; i < n; i++) (*out)[i] &= child_bits[i];
      }
      return;
    }
    case Predicate::Op::kOr: {
      std::fill(out->begin(), out->end(), 0);
      std::vector<uint8_t> child_bits(n);
      for (const Predicate& child : p.children) {
        EvalColumnar(child, view, n, &child_bits);
        for (size_t i = 0; i < n; i++) (*out)[i] |= child_bits[i];
      }
      return;
    }
    default: {
      const BatchColumn* column = view.Find(p.column);
      if (column == nullptr) {
        std::fill(out->begin(), out->end(), 0);  // missing column: NULL
        return;
      }
      for (size_t i = 0; i < n; i++) {
        (*out)[i] = column->present[i] != 0 &&
                    CellMatches(p.op, Slice(column->cells[i]), p.operand);
      }
      return;
    }
  }
}

void FoldRow(const Aggregation& spec, const std::string& key,
             const BatchColumn* agg_column, size_t i, AggResult* agg) {
  std::string group =
      spec.group_by_prefix_len > 0
          ? key.substr(0, std::min<size_t>(spec.group_by_prefix_len,
                                           key.size()))
          : std::string();
  AggBucket& bucket = agg->groups[group];
  if (spec.kind == Aggregation::Kind::kCount) {
    bucket.count++;
    return;
  }
  if (agg_column == nullptr || agg_column->present[i] == 0) return;
  const std::string& cell = agg_column->cells[i];
  Value v;
  if (spec.value_kind == Value::Kind::kInt64) {
    int64_t parsed;
    if (!ParseInt64(Slice(cell), &parsed)) return;  // skip, on every path
    v = Value::Int64(parsed);
  } else {
    v = Value::Bytes(cell);
  }
  bucket.count++;
  if (spec.kind == Aggregation::Kind::kSum) {
    bucket.sum += v.i64;
    return;
  }
  if (!bucket.has_minmax) {
    bucket.min = v;
    bucket.max = v;
    bucket.has_minmax = true;
  } else {
    if (v.Compare(bucket.min) < 0) bucket.min = v;
    if (v.Compare(bucket.max) > 0) bucket.max = v;
  }
}

}  // namespace

Result<TabletResult> ExecuteOverEntries(
    const QueryPlan& plan, const std::vector<index::IndexEntry>& entries,
    const ValueFetcher& fetch, size_t batch_rows) {
  if (batch_rows == 0) batch_rows = 256;
  TabletResult result;
  result.aggregated = plan.aggregation.enabled();
  result.stats.rows_scanned = entries.size();

  // Columns the evaluation must gather out of the stored values.
  std::vector<std::string> needed;
  plan.predicate.CollectColumns(&needed);
  for (const std::string& column : plan.projection.columns) {
    if (std::find(needed.begin(), needed.end(), column) == needed.end()) {
      needed.push_back(column);
    }
  }
  if (result.aggregated &&
      plan.aggregation.kind != Aggregation::Kind::kCount &&
      std::find(needed.begin(), needed.end(), plan.aggregation.column) ==
          needed.end()) {
    needed.push_back(plan.aggregation.column);
  }
  const bool needs_decode = !needed.empty();

  for (size_t base = 0; base < entries.size(); base += batch_rows) {
    const size_t n = std::min(batch_rows, entries.size() - base);

    // Fetch the chunk's stored values (buffer/log/replica per caller).
    std::vector<std::string> values(n);
    for (size_t i = 0; i < n; i++) {
      auto value = fetch(entries[base + i]);
      if (!value.ok()) return value.status();
      values[i] = std::move(*value);
    }

    // Gather the evaluation columns (cells + presence) out of the stored
    // column-group encoding. A value that is not column-encoded simply has
    // every gathered cell absent.
    std::vector<BatchColumn> gathered;
    if (needs_decode) {
      gathered.resize(needed.size());
      for (size_t c = 0; c < needed.size(); c++) {
        gathered[c].name = needed[c];
        gathered[c].cells.resize(n);
        gathered[c].present.assign(n, 0);
      }
      for (size_t i = 0; i < n; i++) {
        std::map<std::string, std::string> decoded;
        if (!DecodeColumnMap(Slice(values[i]), &decoded)) continue;
        for (size_t c = 0; c < needed.size(); c++) {
          auto it = decoded.find(needed[c]);
          if (it != decoded.end()) {
            gathered[c].cells[i] = std::move(it->second);
            gathered[c].present[i] = 1;
          }
        }
      }
      sim::ChargeCpu(static_cast<sim::VirtualTime>(n) *
                     sim::costs::kRecordCodecUs);
    }

    // Predicate -> selection bitmap.
    std::vector<uint8_t> selected(n, 1);
    if (!plan.predicate.IsTrue()) {
      ColumnsView view{&gathered};
      EvalColumnar(plan.predicate, view, n, &selected);
    }

    if (result.aggregated) {
      const BatchColumn* agg_column = nullptr;
      for (const BatchColumn& column : gathered) {
        if (column.name == plan.aggregation.column) agg_column = &column;
      }
      for (size_t i = 0; i < n; i++) {
        if (selected[i] == 0) continue;
        result.stats.rows_returned++;
        FoldRow(plan.aggregation, entries[base + i].key, agg_column, i,
                &result.agg);
      }
      continue;
    }

    // Compact survivors into one shipped batch per chunk.
    ColumnBatch batch;
    for (size_t i = 0; i < n; i++) {
      if (selected[i] == 0) continue;
      batch.keys.push_back(entries[base + i].key);
      batch.timestamps.push_back(entries[base + i].timestamp);
    }
    if (batch.keys.empty()) continue;
    if (plan.projection.empty()) {
      BatchColumn raw;
      raw.name = kRawValueColumn;
      for (size_t i = 0; i < n; i++) {
        if (selected[i] == 0) continue;
        raw.cells.push_back(std::move(values[i]));
        raw.present.push_back(1);
      }
      batch.columns.push_back(std::move(raw));
    } else {
      for (const std::string& name : plan.projection.columns) {
        const BatchColumn* source = nullptr;
        for (const BatchColumn& column : gathered) {
          if (column.name == name) source = &column;
        }
        BatchColumn out;
        out.name = name;
        for (size_t i = 0; i < n; i++) {
          if (selected[i] == 0) continue;
          out.cells.push_back(source != nullptr ? source->cells[i]
                                                : std::string());
          out.present.push_back(
              source != nullptr && source->present[i] != 0 ? 1 : 0);
        }
        batch.columns.push_back(std::move(out));
      }
    }
    result.stats.rows_returned += batch.NumRows();
    result.stats.bytes_shipped += batch.EncodedSize();
    result.batches.push_back(std::move(batch));
  }

  if (result.aggregated) {
    result.stats.bytes_shipped = result.agg.EncodedSize();
  }
  return result;
}

void MergeInto(TabletResult* acc, TabletResult&& part) {
  acc->aggregated = part.aggregated;
  acc->stats.rows_scanned += part.stats.rows_scanned;
  acc->stats.rows_returned += part.stats.rows_returned;
  acc->stats.bytes_shipped += part.stats.bytes_shipped;
  if (part.aggregated) {
    acc->agg.Merge(part.agg);
  } else {
    for (ColumnBatch& batch : part.batches) {
      acc->batches.push_back(std::move(batch));
    }
  }
}

void RecordScanMetrics(const ScanStats& stats) {
  static obs::Counter* scanned =
      obs::MetricsRegistry::Global().counter("query.scan.rows_scanned");
  static obs::Counter* returned =
      obs::MetricsRegistry::Global().counter("query.scan.rows_returned");
  static obs::Counter* shipped =
      obs::MetricsRegistry::Global().counter("query.scan.bytes_shipped");
  static obs::HistogramMetric* selectivity =
      obs::MetricsRegistry::Global().histogram(
          "query.scan.pushdown_selectivity");
  scanned->Add(stats.rows_scanned);
  returned->Add(stats.rows_returned);
  shipped->Add(stats.bytes_shipped);
  if (stats.rows_scanned > 0) {
    selectivity->Observe(100.0 * static_cast<double>(stats.rows_returned) /
                         static_cast<double>(stats.rows_scanned));
  }
}

}  // namespace logbase::query

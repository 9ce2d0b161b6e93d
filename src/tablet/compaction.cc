// Log compaction (paper §3.6.5): a MapReduce-style job over the current log
// segments that (1) drops uncommitted writes, invalidated (deleted) entries
// and obsolete versions, (2) sorts the survivors by table, column group,
// record key and timestamp, and (3) writes them as *sorted segments* so
// range scans become clustered access. The server keeps serving during the
// job; pointer swap uses UpdateIfPresent so concurrent deletes are never
// resurrected.
//
// A transaction is decided by the same rule as recovery's in-doubt
// resolver (src/tablet/log_applier.h): a COMMIT or ABORT in this log, else,
// once its coordinator is done, DecidePrepared over the other participants'
// logs. The PREPARE of a committed cross-server transaction, plus a COMMIT
// record, is copied to the outputs: another participant that lost its
// COMMIT may still need this log's evidence to resolve the transaction. A
// transaction whose coordinator may still act keeps its data and PREPARE,
// undecided.
//
// Crash-safe ordering: write outputs -> swing index pointers -> checkpoint
// -> delete inputs. Output segments live in a high "generation lane"
// (gen << 24) so the live writer's low lane is undisturbed, and recovery
// never redoes them (the checkpoint covers them).

#include <algorithm>
#include <map>
#include <set>

#include "src/log/log_reader.h"
#include "src/tablet/log_applier.h"
#include "src/tablet/tablet_server.h"
#include "src/util/logging.h"

namespace logbase::tablet {

namespace {

struct KeptRecord {
  log::LogRecord record;
  log::LogPtr new_ptr;  // filled when written out
};

/// Sort order of the compacted log: table, column group, key, timestamp
/// descending (newest version of each key first).
bool CompactionOrder(const log::LogRecord& a, const log::LogRecord& b) {
  if (a.key.table_id != b.key.table_id) {
    return a.key.table_id < b.key.table_id;
  }
  if (a.row.column_group != b.row.column_group) {
    return a.row.column_group < b.row.column_group;
  }
  int c = Slice(a.row.primary_key).compare(Slice(b.row.primary_key));
  if (c != 0) return c < 0;
  return a.row.timestamp > b.row.timestamp;
}

std::string InvalidationKey(const log::LogRecord& record) {
  std::string k;
  k += std::to_string(record.key.table_id);
  k.push_back('|');
  k += std::to_string(record.row.column_group);
  k.push_back('|');
  k += record.row.primary_key;
  return k;
}

}  // namespace

Status RunCompaction(TabletServer* server, const CompactionOptions& options,
                     CompactionStats* stats) {
  FileSystem* fs = server->fs_.get();
  const std::string dir = server->log_dir();

  // Freeze the input set: everything before the segment the writer rolls
  // into now. New updates keep flowing into the fresh tail segment.
  LOGBASE_RETURN_NOT_OK(server->writer_->Roll());
  uint32_t tail_segment = server->writer_->Position().segment;

  log::LogReader* reader = server->ReaderFor(server->server_id());
  auto segments = reader->ListSegments();
  if (!segments.ok()) return segments.status();

  uint32_t max_gen = 0;
  std::vector<uint32_t> inputs;
  for (uint32_t seg : *segments) {
    uint32_t gen = seg >> 24;
    max_gen = std::max(max_gen, gen);
    if (gen == 0 && seg >= tail_segment) continue;  // live tail
    inputs.push_back(seg);
  }
  uint32_t new_gen = max_gen + 1;
  if (inputs.empty()) return Status::OK();

  // Pass over the inputs: gather data records, transaction decisions and
  // PREPAREs (by commit timestamp) and per-key invalidation horizons.
  std::vector<KeptRecord> records;
  std::set<uint64_t> committed;
  std::set<uint64_t> aborted;
  std::map<uint64_t, log::LogRecord> prepares;
  // One written cell per transaction, for CoordinatorActive.
  std::map<uint64_t, std::pair<log::LogKey, std::string>> txn_cells;
  std::map<std::string, uint64_t> invalidated_upto;
  for (uint32_t seg : inputs) {
    auto scanner = reader->NewSegmentScanner(seg);
    if (!scanner.ok()) return scanner.status();
    for (; (*scanner)->Valid(); (*scanner)->Next()) {
      const log::LogRecord& record = (*scanner)->record();
      stats->input_records++;
      const bool write = record.type == log::LogRecordType::kData ||
                         record.type == log::LogRecordType::kInvalidate;
      if (write && record.txn_id != 0) {
        txn_cells.try_emplace(record.commit_ts, record.key,
                              record.row.primary_key);
      }
      switch (record.type) {
        case log::LogRecordType::kData:
          records.push_back(KeptRecord{record, {}});
          break;
        case log::LogRecordType::kCommit:
          committed.insert(record.commit_ts);
          break;
        case log::LogRecordType::kAbort:
          aborted.insert(record.commit_ts);
          break;
        case log::LogRecordType::kPrepare:
          prepares.emplace(record.commit_ts, record);
          break;
        case log::LogRecordType::kInvalidate: {
          uint64_t& upto = invalidated_upto[InvalidationKey(record)];
          upto = std::max(upto, record.row.timestamp);
          break;
        }
        case log::LogRecordType::kBatchHeader:
          // Consumed inside the scanner; never surfaced as a record.
          break;
      }
    }
    if (!(*scanner)->status().ok()) return (*scanner)->status();
  }

  // A transaction's decision may have landed after the freeze (its data
  // records are inputs, its COMMIT or ABORT is in the tail): scan the tail
  // for them so such transactions are decided as they were.
  for (uint32_t seg : *segments) {
    if ((seg >> 24) != 0 || seg < tail_segment) continue;
    auto scanner = reader->NewSegmentScanner(seg);
    if (!scanner.ok()) return scanner.status();
    for (; (*scanner)->Valid(); (*scanner)->Next()) {
      const log::LogRecord& record = (*scanner)->record();
      if (record.type == log::LogRecordType::kCommit) {
        committed.insert(record.commit_ts);
      } else if (record.type == log::LogRecordType::kAbort) {
        aborted.insert(record.commit_ts);
      }
    }
  }

  // Prepared transactions this log leaves undecided take the in-doubt
  // rule over their participants' logs, unless their coordinator may still
  // act on them.
  std::map<uint64_t, std::vector<uint32_t>> undecided;
  std::set<uint64_t> in_flight;
  for (const auto& [commit_ts, prepare] : prepares) {
    if (committed.count(commit_ts) > 0 || aborted.count(commit_ts) > 0) {
      continue;
    }
    auto cell = txn_cells.find(commit_ts);
    if (cell != txn_cells.end() &&
        server->CoordinatorActive(cell->second.first, cell->second.second)) {
      in_flight.insert(commit_ts);
      continue;
    }
    std::vector<uint32_t>& participants = undecided[commit_ts];
    if (!log::DecodeParticipants(Slice(prepare.value), &participants)) {
      return Status::Corruption("malformed PREPARE participants");
    }
  }
  if (!undecided.empty()) {
    auto decided = DecidePrepared(
        undecided, server->server_id(),
        [server](uint32_t instance) { return server->ReaderFor(instance); });
    if (!decided.ok()) return decided.status();
    committed.insert(decided->begin(), decided->end());
  }

  // Filter: uncommitted and invalidated entries go away.
  std::vector<KeptRecord> kept;
  kept.reserve(records.size());
  for (KeptRecord& kr : records) {
    const log::LogRecord& r = kr.record;
    if (r.txn_id != 0 && committed.count(r.commit_ts) == 0 &&
        in_flight.count(r.commit_ts) == 0) {
      stats->dropped_uncommitted++;
      continue;
    }
    auto inv = invalidated_upto.find(InvalidationKey(r));
    if (inv != invalidated_upto.end() && r.row.timestamp <= inv->second) {
      stats->dropped_invalidated++;
      continue;
    }
    kept.push_back(std::move(kr));
  }

  // Sort by (table, column group, key, timestamp desc) and drop duplicates
  // (re-compacted copies) plus versions beyond the configured horizon.
  std::sort(kept.begin(), kept.end(),
            [](const KeptRecord& a, const KeptRecord& b) {
              return CompactionOrder(a.record, b.record);
            });
  std::vector<KeptRecord> outputs_records;
  outputs_records.reserve(kept.size());
  uint32_t versions_of_current = 0;
  for (KeptRecord& kr : kept) {
    if (!outputs_records.empty()) {
      const log::LogRecord& prev = outputs_records.back().record;
      const log::LogRecord& cur = kr.record;
      bool same_key = prev.key.table_id == cur.key.table_id &&
                      prev.row.column_group == cur.row.column_group &&
                      prev.row.primary_key == cur.row.primary_key;
      if (same_key && prev.row.timestamp == cur.row.timestamp) {
        continue;  // duplicate from a previous generation
      }
      versions_of_current = same_key ? versions_of_current : 0;
    }
    if (options.max_versions_per_key > 0 &&
        versions_of_current >= options.max_versions_per_key) {
      stats->dropped_obsolete++;
      continue;
    }
    versions_of_current++;
    outputs_records.push_back(std::move(kr));
  }

  // Write sorted segments in the new generation lane.
  uint32_t out_seq = 0;
  std::unique_ptr<WritableFile> out;
  uint32_t out_segment = 0;
  uint64_t out_offset = 0;
  auto roll_output = [&]() -> Status {
    if (out != nullptr) {
      LOGBASE_RETURN_NOT_OK(out->Sync());
      LOGBASE_RETURN_NOT_OK(out->Close());
    }
    out_seq++;
    out_segment = (new_gen << 24) | out_seq;
    out_offset = 0;
    auto file =
        fs->NewWritableFile(log::SegmentFileName(dir, out_segment));
    if (!file.ok()) return file.status();
    out = std::move(*file);
    stats->output_segments++;
    return Status::OK();
  };

  // The committed cross-server transactions' evidence follows the data;
  // an in-flight one keeps its PREPARE alone.
  for (auto& [commit_ts, prepare] : prepares) {
    const bool commit = committed.count(commit_ts) > 0;
    if (!commit && in_flight.count(commit_ts) == 0) continue;
    outputs_records.push_back(KeptRecord{std::move(prepare), {}});
    if (commit) {
      log::LogRecord record;
      record.type = log::LogRecordType::kCommit;
      record.commit_ts = commit_ts;
      outputs_records.push_back(KeptRecord{std::move(record), {}});
    }
  }

  std::string buffer;
  for (KeptRecord& kr : outputs_records) {
    if (out == nullptr || out_offset >= server->options_.segment_bytes) {
      if (!buffer.empty()) {
        LOGBASE_RETURN_NOT_OK(out->Append(Slice(buffer)));
        buffer.clear();
      }
      LOGBASE_RETURN_NOT_OK(roll_output());
    }
    size_t before = buffer.size();
    kr.record.EncodeTo(&buffer);
    kr.new_ptr.instance = server->server_id();
    kr.new_ptr.segment = out_segment;
    kr.new_ptr.offset = out_offset + before;
    kr.new_ptr.size = static_cast<uint32_t>(buffer.size() - before);
    // Flush in ~1 MB chunks to keep appends few and sequential.
    if (buffer.size() >= (1u << 20)) {
      LOGBASE_RETURN_NOT_OK(out->Append(Slice(buffer)));
      out_offset += buffer.size();
      buffer.clear();
    }
    stats->output_records++;
  }
  if (out != nullptr) {
    if (!buffer.empty()) {
      LOGBASE_RETURN_NOT_OK(out->Append(Slice(buffer)));
      buffer.clear();
    }
    LOGBASE_RETURN_NOT_OK(out->Sync());
    LOGBASE_RETURN_NOT_OK(out->Close());
  }

  // Swing index pointers to the sorted segments. UpdateIfPresent leaves
  // concurrently deleted keys deleted and never resurrects anything.
  for (const KeptRecord& kr : outputs_records) {
    if (kr.record.type != log::LogRecordType::kData) continue;
    Tablet* tablet = server->FindTablet(
        TabletDescriptor::FromPackedId(kr.record.key.table_id,
                                       kr.record.key.tablet_id)
            .uid());
    if (tablet == nullptr) continue;
    Status s = tablet->index()->UpdateIfPresent(
        Slice(kr.record.row.primary_key), kr.record.row.timestamp,
        kr.new_ptr);
    if (!s.ok() && !s.IsNotFound()) return s;
  }

  // Durability point: the checkpoint written here covers the outputs, so
  // recovery never needs the inputs again.
  LOGBASE_RETURN_NOT_OK(server->Checkpoint());

  for (uint32_t seg : inputs) {
    // Input segments are dead after the checkpoint above; a failed delete
    // only leaks space until the next compaction sweep.
    (void)fs->DeleteFile(log::SegmentFileName(dir, seg));
  }
  LOGBASE_LOG(kInfo,
              "server %d compaction: %llu in, %llu out, gen %u, %u segments",
              server->server_id(),
              static_cast<unsigned long long>(stats->input_records),
              static_cast<unsigned long long>(stats->output_records), new_gen,
              stats->output_segments);
  return Status::OK();
}

}  // namespace logbase::tablet

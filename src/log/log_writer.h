// The single log instance of a tablet server (paper §3.4 design choice: one
// log per server for all its tablets, to keep writes sequential). The log is
// an infinite sequence of 64 MB segments, each an append-only DFS file.
//
// Writes go through group commit (§3.7.2 + the BtrLog playbook, PAPERS.md):
// Submit() stamps LSNs, encodes the records into the open batch and returns
// a ticket; Wait() returns once the ticket's batch is durable under its ack
// mode. The first waiter of a still-open batch flushes it for everyone
// (leader/follower). Each flushed batch is one continuous on-disk unit — a
// BatchHeader frame followed by the batch's record frames, CRC'd as a whole
// — and batches are pipelined to the DFS with quorum acks
// (WritableFile::SyncWith in src/util/io.h). AppendBatch/Append are the
// synchronous wrappers (Submit + Wait).

#ifndef LOGBASE_LOG_LOG_WRITER_H_
#define LOGBASE_LOG_LOG_WRITER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/log/log_record.h"
#include "src/sim/sim_context.h"
#include "src/util/io.h"
#include "src/util/result.h"

#include "src/util/ordered_mutex.h"

namespace logbase::log {

/// Durability ack mode of an append (threaded down from the client's
/// WriteOptions to the DFS sync): quorum acks once a majority of log
/// replicas are durable, all waits for the full replication width.
using AckMode = ::logbase::AckMode;

/// Size caps of one batch: the open batch is sealed when a submission
/// would take it past either.
inline constexpr size_t kMaxBatchBytes = 1 << 20;  // record-frame bytes
inline constexpr size_t kMaxBatchRecords = 512;

struct GroupCommitOptions {
  /// Group-commit window: an open batch is sealed once this much virtual
  /// time has passed since its first submission arrived (checked at the
  /// next Submit). 0 disables cross-submission coalescing — every
  /// submission flushes the previous one out.
  sim::VirtualTime window_us = 200;
};

/// Handle for a submission: which batch it landed in and which of the
/// batch's records are its. A default-constructed ticket is invalid (an
/// empty submission); waiting on it is a no-op.
struct AppendTicket {
  uint64_t batch_seq = 0;
  uint32_t first_record = 0;
  uint32_t record_count = 0;

  bool valid() const { return batch_seq != 0; }
};

/// Position in the log: everything before it is persisted.
struct LogPosition {
  uint32_t segment = 0;
  uint64_t offset = 0;

  bool operator<(const LogPosition& o) const {
    return segment != o.segment ? segment < o.segment : offset < o.offset;
  }
  bool operator==(const LogPosition& o) const {
    return segment == o.segment && offset == o.offset;
  }
};

std::string SegmentFileName(const std::string& dir, uint32_t segment);
/// Inverse of SegmentFileName; false when `path` is not a segment file.
bool ParseSegmentNumber(const std::string& path, uint32_t* segment);

class LogWriter {
 public:
  /// `dir` is the server's log directory in the DFS; `instance` is the log
  /// instance id stamped into every LogPtr (the owning server's stable id).
  LogWriter(FileSystem* fs, std::string dir, uint32_t instance = 0,
            uint64_t segment_bytes = 64ull << 20,
            GroupCommitOptions group_commit = {});

  /// Prepares for appending: scans existing segments and starts a fresh one
  /// after the highest (used both at first start and after recovery).
  /// `first_lsn` seeds LSN assignment (paper: LSN restarts from the last
  /// checkpointed LSN). Submissions never waited are dropped, and their
  /// tickets are no longer valid.
  Status Open(uint64_t first_lsn = 1) EXCLUDES(mu_);

  /// Appends one record (assigning its LSN) and waits for durability.
  Result<LogPtr> Append(LogRecord record, AckMode ack = AckMode::kQuorum)
      EXCLUDES(mu_);

  /// Group commit: assigns LSNs, coalesces the records with any other
  /// pending submissions and waits for the batch's durability ack. ptrs[i]
  /// locates records[i].
  Status AppendBatch(std::vector<LogRecord>* records,
                     std::vector<LogPtr>* ptrs,
                     AckMode ack = AckMode::kQuorum) EXCLUDES(mu_);

  /// Async half of group commit: stamps LSNs, encodes the records into the
  /// open batch and returns without waiting for durability. The open batch
  /// is sealed and flushed first when its window expired, or when these
  /// records would take it past a size cap. A batch acks at the strongest
  /// mode any of its submissions asked for. The records' pointers (and the
  /// durability ack) arrive at Wait().
  Result<AppendTicket> Submit(std::vector<LogRecord>* records,
                              AckMode ack = AckMode::kQuorum) EXCLUDES(mu_);

  /// Completes a Submit: flushes the ticket's batch if it is still open
  /// (group-commit leader), advances the caller's virtual clock to the
  /// batch's durability ack and fills `ptrs` (one per submitted record).
  /// Each ticket must be waited exactly once.
  Status Wait(const AppendTicket& ticket, std::vector<LogPtr>* ptrs)
      EXCLUDES(mu_);

  /// Seals + flushes the open batch (durability barrier before checkpoints
  /// and rolls). Pending waiters still collect their tickets afterwards.
  Status Flush() EXCLUDES(mu_);

  /// Closes the current segment and starts a new one (compaction freezes the
  /// input set this way). Flushes the open batch first.
  Status Roll() EXCLUDES(mu_);

  /// The tail position (next batch lands here); excludes unflushed
  /// submissions — call Flush() first for a durable-tail barrier.
  LogPosition Position() const EXCLUDES(mu_);

  uint64_t next_lsn() const EXCLUDES(mu_);
  uint64_t bytes_written() const EXCLUDES(mu_);
  /// Records waiting in the open (unflushed) batch.
  size_t pending_records() const EXCLUDES(mu_);

 private:
  /// The batch submissions are coalescing into. seq 0 = none open.
  struct OpenBatch {
    uint64_t seq = 0;
    /// Concatenated encoded record frames (no batch header — the flush
    /// prefixes it).
    std::string frames;
    /// Start offset of each record frame within `frames`.
    std::vector<uint32_t> frame_offsets;
    /// kAll once any submission asked for it.
    AckMode ack = AckMode::kQuorum;
    sim::VirtualTime first_arrival_us = 0;
    /// Number of submissions coalesced into the batch.
    uint32_t submissions = 0;
  };

  /// A flushed batch whose tickets have not all been waited yet.
  struct Outcome {
    Status status;
    /// One pointer per record, in `frames` order.
    std::vector<LogPtr> ptrs;
    /// Virtual time the batch's durability ack landed (waiters advance
    /// their clock to it).
    sim::VirtualTime ack_us = 0;
    uint32_t waiters_left = 0;
  };

  Status RollSegmentLocked() REQUIRES(mu_);
  /// Starts a fresh open batch whose first submission arrived at `now`.
  void OpenBatchLocked(sim::VirtualTime now) REQUIRES(mu_);
  /// Seals the open batch, if any, writes it to the segment and files its
  /// outcome for the waiters; returns the outcome's status.
  Status FlushOpenBatchLocked() REQUIRES(mu_);
  /// Writes one sealed batch (header + frames) and syncs it under its ack
  /// mode.
  Outcome WriteBatchLocked(const OpenBatch& batch) REQUIRES(mu_);

  FileSystem* const fs_;
  const std::string dir_;
  const uint32_t instance_;
  const uint64_t segment_bytes_;
  const GroupCommitOptions group_commit_;

  mutable OrderedMutex mu_{lockrank::kLogWriter, "log.writer"};
  std::unique_ptr<WritableFile> file_ GUARDED_BY(mu_);
  uint32_t segment_ GUARDED_BY(mu_) = 0;
  uint64_t segment_offset_ GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ GUARDED_BY(mu_) = 1;
  uint64_t bytes_written_ GUARDED_BY(mu_) = 0;
  /// Batch sequence numbers never repeat, not even across Open(), so a
  /// ticket from before a restart cannot name a later batch.
  uint64_t next_batch_seq_ GUARDED_BY(mu_) = 1;
  OpenBatch open_ GUARDED_BY(mu_);
  std::map<uint64_t, Outcome> outcomes_ GUARDED_BY(mu_);
};

}  // namespace logbase::log

#endif  // LOGBASE_LOG_LOG_WRITER_H_

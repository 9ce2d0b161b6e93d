// The group-commit append queue (BtrLog playbook, PAPERS.md): concurrent
// writers Submit() encoded record frames and get back a ticket; the
// dispatcher coalesces submissions into one continuous multi-record batch
// (header frame + back-to-back record frames, per-batch CRC) and flushes it
// through the sink when the batch window expires, a size cap is hit, or a
// waiter arrives. Wait() is the leader/follower group-commit rendezvous: the
// first waiter of a still-open batch flushes it for everyone.
//
// The queue is a pure batching mechanism — it does no I/O and keeps no
// clock. The owning LogWriter provides the sink (segment write + replicated
// sync) and holds its own mutex around every call: AppendQueue is
// externally synchronized.

#ifndef LOGBASE_LOG_APPEND_QUEUE_H_
#define LOGBASE_LOG_APPEND_QUEUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/log/log_record.h"
#include "src/sim/sim_context.h"
#include "src/util/result.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace logbase::log {

/// Durability ack mode for an append (threaded down from the client's
/// WriteOptions): quorum acks as soon as a majority of log replicas are
/// durable (the straggler completes in the background), all waits for the
/// full replication width (the historical chain ack).
enum class AckMode : uint8_t {
  kQuorum,
  kAll,
};

/// Size caps of one batch: the open batch is sealed when a submission
/// would take it past either.
inline constexpr size_t kMaxBatchBytes = 1 << 20;  // record-frame bytes
inline constexpr size_t kMaxBatchRecords = 512;

struct AppendQueueOptions {
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

class AppendQueue {
 public:
  /// One sealed batch handed to the sink.
  struct SealedBatch {
    uint64_t seq = 0;
    /// Concatenated encoded record frames (no batch header — the sink
    /// prefixes it, since only the sink knows the segment layout).
    std::string frames;
    /// Start offset of each record frame within `frames`.
    std::vector<uint32_t> frame_offsets;
    AckMode ack = AckMode::kQuorum;
    sim::VirtualTime first_arrival_us = 0;
    /// Number of submissions coalesced into the batch.
    uint32_t submissions = 0;
  };

  /// What the sink reports back per batch.
  struct FlushOutcome {
    Status status;
    /// One pointer per record, in `frames` order.
    std::vector<LogPtr> ptrs;
    /// Virtual time the batch's durability ack landed (waiters advance
    /// their clock to it).
    sim::VirtualTime ack_us = 0;
  };

  using BatchSink = std::function<FlushOutcome(const SealedBatch&)>;

  AppendQueue(BatchSink sink, AppendQueueOptions options);

  /// Adds pre-encoded record frames to the open batch (possibly flushing
  /// the previous batch first when the window expired or a cap would be
  /// exceeded). `frame_offsets` locate each record frame within `frames`.
  /// The arrival time is read from the ambient SimContext (0 without one).
  AppendTicket Submit(const Slice& frames,
                      const std::vector<uint32_t>& frame_offsets, AckMode ack);

  /// Ensures the ticket's batch is flushed (flushing it now if it is still
  /// open) and returns its outcome: `ptrs` receives the pointers of the
  /// ticket's own records, `ack_us` the batch's ack time. Each ticket must
  /// be waited exactly once.
  Status Wait(const AppendTicket& ticket, std::vector<LogPtr>* ptrs,
              sim::VirtualTime* ack_us);

  /// Seals and flushes the open batch, if any (barrier before a segment
  /// roll, a checkpoint, or shutdown).
  Status Flush();

  /// Records sitting in the open (not yet flushed) batch.
  size_t pending_records() const { return open_.frame_offsets.size(); }
  size_t pending_bytes() const { return open_.frames.size(); }
  uint64_t batches_flushed() const { return batches_flushed_; }

 private:
  struct PendingOutcome {
    FlushOutcome outcome;
    uint32_t waiters_left = 0;
  };

  /// True when the open batch must be sealed before admitting `bytes` /
  /// `records` more at virtual time `now`.
  bool MustSeal(sim::VirtualTime now, size_t bytes, size_t records) const;
  Status FlushOpenBatch();

  const BatchSink sink_;
  const AppendQueueOptions options_;

  // Everything below is guarded by the owning LogWriter's mu_ (external
  // synchronization, see the file comment). The thread-safety analysis
  // cannot name a foreign capability here; the coverage proof lives in
  // LogWriter, whose annotated methods hold mu_ around every queue call.
  uint64_t next_seq_ = 1;
  SealedBatch open_;
  bool open_active_ = false;
  /// Flushed batches whose tickets have not all been waited yet.
  std::map<uint64_t, PendingOutcome> outcomes_;
  uint64_t batches_flushed_ = 0;
};

}  // namespace logbase::log

#endif  // LOGBASE_LOG_APPEND_QUEUE_H_

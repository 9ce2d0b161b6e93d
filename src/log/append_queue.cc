#include "src/log/append_queue.h"

#include <utility>

#include "src/obs/metrics.h"

namespace logbase::log {

AppendQueue::AppendQueue(BatchSink sink, AppendQueueOptions options)
    : sink_(std::move(sink)), options_(options) {}

bool AppendQueue::MustSeal(sim::VirtualTime now, size_t bytes,
                           size_t records) const {
  if (!open_active_) return false;
  if (options_.window_us == 0) return true;
  if (now >= open_.first_arrival_us + options_.window_us) return true;
  return open_.frames.size() + bytes > kMaxBatchBytes ||
         open_.frame_offsets.size() + records > kMaxBatchRecords;
}

AppendTicket AppendQueue::Submit(const Slice& frames,
                                 const std::vector<uint32_t>& frame_offsets,
                                 AckMode ack) {
  if (frame_offsets.empty()) return AppendTicket{};
  sim::SimContext* ctx = sim::SimContext::Current();
  sim::VirtualTime now = ctx != nullptr ? ctx->now() : 0;
  if (MustSeal(now, frames.size(), frame_offsets.size())) {
    // The window expired (or a cap is full): ship the open batch. Its
    // waiters pick up the outcome later; with a pipelined sink this
    // submission does not stall on the previous batch's ack.
    (void)FlushOpenBatch();
  }
  if (!open_active_) {
    open_ = SealedBatch{};
    open_.seq = next_seq_++;
    open_.first_arrival_us = now;
    open_.ack = ack;
    open_active_ = true;
  }
  // A batch acks at the strongest mode any of its submissions asked for.
  if (ack == AckMode::kAll) open_.ack = AckMode::kAll;

  AppendTicket ticket;
  ticket.batch_seq = open_.seq;
  ticket.first_record = static_cast<uint32_t>(open_.frame_offsets.size());
  ticket.record_count = static_cast<uint32_t>(frame_offsets.size());
  uint32_t base = static_cast<uint32_t>(open_.frames.size());
  for (uint32_t off : frame_offsets) {
    open_.frame_offsets.push_back(base + off);
  }
  open_.frames.append(frames.data(), frames.size());
  open_.submissions++;
  return ticket;
}

Status AppendQueue::FlushOpenBatch() {
  if (!open_active_) return Status::OK();
  SealedBatch batch = std::move(open_);
  open_ = SealedBatch{};
  open_active_ = false;

  PendingOutcome pending;
  pending.outcome = sink_(batch);
  pending.waiters_left = batch.submissions;
  batches_flushed_++;
  static obs::HistogramMetric* batch_size =
      obs::MetricsRegistry::Global().histogram("log.append.batch_size");
  batch_size->Observe(static_cast<double>(batch.frame_offsets.size()));
  Status status = pending.outcome.status;
  outcomes_.emplace(batch.seq, std::move(pending));
  return status;
}

Status AppendQueue::Wait(const AppendTicket& ticket,
                         std::vector<LogPtr>* ptrs, sim::VirtualTime* ack_us) {
  if (ptrs != nullptr) ptrs->clear();
  if (ack_us != nullptr) *ack_us = 0;
  if (!ticket.valid()) return Status::OK();
  if (open_active_ && open_.seq == ticket.batch_seq) {
    // Group-commit leader: the first waiter flushes the batch for every
    // submission coalesced into it.
    (void)FlushOpenBatch();
  }
  auto it = outcomes_.find(ticket.batch_seq);
  if (it == outcomes_.end()) {
    return Status::InvalidArgument("append ticket unknown or already waited");
  }
  PendingOutcome& pending = it->second;
  Status status = pending.outcome.status;
  if (status.ok()) {
    if (ptrs != nullptr) {
      ptrs->assign(
          pending.outcome.ptrs.begin() + ticket.first_record,
          pending.outcome.ptrs.begin() + ticket.first_record +
              ticket.record_count);
    }
    if (ack_us != nullptr) *ack_us = pending.outcome.ack_us;
  }
  if (--pending.waiters_left == 0) outcomes_.erase(it);
  return status;
}

Status AppendQueue::Flush() { return FlushOpenBatch(); }

}  // namespace logbase::log

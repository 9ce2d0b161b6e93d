#include "src/log/log_writer.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/crc32c.h"

namespace logbase::log {

namespace {

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().gauge("log.append.queue_depth");
  return g;
}

}  // namespace

std::string SegmentFileName(const std::string& dir, uint32_t segment) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/segment_%06u.log", segment);
  return dir + buf;
}

bool ParseSegmentNumber(const std::string& path, uint32_t* segment) {
  size_t pos = path.rfind("/segment_");
  if (pos == std::string::npos) return false;
  const char* digits = path.c_str() + pos + 9;  // past "/segment_"
  char* end = nullptr;
  unsigned long value = std::strtoul(digits, &end, 10);
  if (end == digits || std::string(end) != ".log") return false;
  *segment = static_cast<uint32_t>(value);
  return true;
}

LogWriter::LogWriter(FileSystem* fs, std::string dir, uint32_t instance,
                     uint64_t segment_bytes, GroupCommitOptions group_commit)
    : fs_(fs),
      dir_(std::move(dir)),
      instance_(instance),
      segment_bytes_(segment_bytes),
      group_commit_(group_commit) {}

Status LogWriter::Open(uint64_t first_lsn) {
  MutexLock l(mu_);
  next_lsn_ = first_lsn;
  // Drop any submissions queued before a crash/restart: they were never
  // acked, and flushing them into the fresh segment would resurrect writes
  // whose callers already saw the server die.
  open_ = OpenBatch{};
  outcomes_.clear();
  // Find the highest existing segment and continue after it: old segments
  // are immutable history (possibly replayed by recovery).
  auto existing = fs_->List(dir_ + "/segment_");
  uint32_t highest = 0;
  if (existing.ok()) {
    for (const std::string& path : *existing) {
      uint32_t seg = 0;
      if (!ParseSegmentNumber(path, &seg)) continue;
      // The writer owns the low segment lane; compaction outputs live in
      // high lanes (generation << 24) and are never appended to.
      if (seg > highest && seg < (1u << 24)) highest = seg;
    }
  }
  segment_ = highest + 1;
  segment_offset_ = 0;
  auto file = fs_->NewWritableFile(SegmentFileName(dir_, segment_));
  if (!file.ok()) return file.status();
  file_ = std::move(*file);
  return Status::OK();
}

Status LogWriter::RollSegmentLocked() {
  if (file_ != nullptr) {
    LOGBASE_RETURN_NOT_OK(file_->Sync());
    LOGBASE_RETURN_NOT_OK(file_->WaitForAcks());
    LOGBASE_RETURN_NOT_OK(file_->Close());
  }
  segment_++;
  segment_offset_ = 0;
  auto file = fs_->NewWritableFile(SegmentFileName(dir_, segment_));
  if (!file.ok()) return file.status();
  file_ = std::move(*file);
  return Status::OK();
}

Status LogWriter::Roll() {
  MutexLock l(mu_);
  if (file_ == nullptr) return Status::InvalidArgument("log writer not open");
  LOGBASE_RETURN_NOT_OK(FlushOpenBatchLocked());
  return RollSegmentLocked();
}

Result<LogPtr> LogWriter::Append(LogRecord record, AckMode ack) {
  std::vector<LogRecord> batch;
  batch.push_back(std::move(record));
  std::vector<LogPtr> ptrs;
  LOGBASE_RETURN_NOT_OK(AppendBatch(&batch, &ptrs, ack));
  return ptrs[0];
}

Status LogWriter::AppendBatch(std::vector<LogRecord>* records,
                              std::vector<LogPtr>* ptrs, AckMode ack) {
  ptrs->clear();
  if (records->empty()) return Status::OK();
  auto ticket = Submit(records, ack);
  if (!ticket.ok()) return ticket.status();
  return Wait(*ticket, ptrs);
}

Result<AppendTicket> LogWriter::Submit(std::vector<LogRecord>* records,
                                       AckMode ack) {
  obs::Span span("log.append.submit");
  MutexLock l(mu_);
  if (file_ == nullptr) return Status::InvalidArgument("log writer not open");
  if (records->empty()) return AppendTicket{};
  static obs::HistogramMetric* batch_records =
      obs::MetricsRegistry::Global().histogram("log.append.batch_records");
  batch_records->Observe(static_cast<double>(records->size()));

  sim::SimContext* ctx = sim::SimContext::Current();
  sim::VirtualTime now = ctx != nullptr ? ctx->now() : 0;
  if (open_.seq != 0 &&
      (group_commit_.window_us == 0 ||
       now >= open_.first_arrival_us + group_commit_.window_us)) {
    // The window expired (or is 0): ship the open batch. Its waiters pick
    // up the outcome later; the pipelined sync does not stall this
    // submission on the previous batch's ack.
    (void)FlushOpenBatchLocked();
  }
  const bool joined = open_.seq != 0;
  if (!joined) OpenBatchLocked(now);
  const size_t mark = open_.frames.size();
  const size_t first = open_.frame_offsets.size();
  for (LogRecord& record : *records) {
    record.key.lsn = next_lsn_++;
    open_.frame_offsets.push_back(static_cast<uint32_t>(open_.frames.size()));
    record.EncodeTo(&open_.frames);
  }
  if (joined && (open_.frames.size() > kMaxBatchBytes ||
                 open_.frame_offsets.size() > kMaxBatchRecords)) {
    // These records would take the batch past a cap: seal it without them
    // and carry them over into a fresh batch.
    std::string frames = open_.frames.substr(mark);
    std::vector<uint32_t> offsets(open_.frame_offsets.begin() + first,
                                  open_.frame_offsets.end());
    open_.frames.resize(mark);
    open_.frame_offsets.resize(first);
    (void)FlushOpenBatchLocked();
    OpenBatchLocked(now);
    open_.frames = std::move(frames);
    for (uint32_t& off : offsets) off -= static_cast<uint32_t>(mark);
    open_.frame_offsets = std::move(offsets);
  }
  // A batch acks at the strongest mode any of its submissions asked for.
  if (ack == AckMode::kAll) open_.ack = AckMode::kAll;
  open_.submissions++;

  AppendTicket ticket;
  ticket.batch_seq = open_.seq;
  ticket.record_count = static_cast<uint32_t>(records->size());
  ticket.first_record =
      static_cast<uint32_t>(open_.frame_offsets.size()) - ticket.record_count;
  QueueDepthGauge()->Set(static_cast<int64_t>(open_.frame_offsets.size()));
  return ticket;
}

void LogWriter::OpenBatchLocked(sim::VirtualTime now) {
  open_ = OpenBatch{};
  open_.seq = next_batch_seq_++;
  open_.first_arrival_us = now;
}

Status LogWriter::Wait(const AppendTicket& ticket, std::vector<LogPtr>* ptrs) {
  obs::Span span("log.append");
  if (ptrs != nullptr) ptrs->clear();
  if (!ticket.valid()) return Status::OK();
  MutexLock l(mu_);
  // Group-commit leader: the first waiter flushes the batch for every
  // submission coalesced into it.
  if (open_.seq == ticket.batch_seq) (void)FlushOpenBatchLocked();
  QueueDepthGauge()->Set(static_cast<int64_t>(open_.frame_offsets.size()));
  auto it = outcomes_.find(ticket.batch_seq);
  if (it == outcomes_.end()) {
    return Status::InvalidArgument("append ticket unknown or already waited");
  }
  Outcome& outcome = it->second;
  Status status = outcome.status;
  sim::VirtualTime ack_us = outcome.ack_us;
  if (status.ok() && ptrs != nullptr) {
    auto begin = outcome.ptrs.begin() + ticket.first_record;
    ptrs->assign(begin, begin + ticket.record_count);
  }
  if (--outcome.waiters_left == 0) outcomes_.erase(it);
  LOGBASE_RETURN_NOT_OK(status);
  sim::SimContext* ctx = sim::SimContext::Current();
  if (ctx != nullptr && ack_us > 0) ctx->AdvanceTo(ack_us);
  return Status::OK();
}

Status LogWriter::Flush() {
  MutexLock l(mu_);
  Status status = FlushOpenBatchLocked();
  QueueDepthGauge()->Set(static_cast<int64_t>(open_.frame_offsets.size()));
  return status;
}

Status LogWriter::FlushOpenBatchLocked() {
  if (open_.seq == 0) return Status::OK();
  OpenBatch batch = std::move(open_);
  open_ = OpenBatch{};
  Outcome outcome = WriteBatchLocked(batch);
  outcome.waiters_left = batch.submissions;
  static obs::HistogramMetric* batch_size =
      obs::MetricsRegistry::Global().histogram("log.append.batch_size");
  batch_size->Observe(static_cast<double>(batch.frame_offsets.size()));
  Status status = outcome.status;
  outcomes_.emplace(batch.seq, std::move(outcome));
  return status;
}

LogWriter::Outcome LogWriter::WriteBatchLocked(const OpenBatch& batch) {
  Outcome out;
  if (file_ == nullptr) {
    out.status = Status::InvalidArgument("log writer not open");
    return out;
  }
  // A failed batch whose sync stored part of it (a torn tail, which
  // readers skip) leaves the file longer than the writer counted: the next
  // batch starts a fresh segment so its pointers name its own bytes.
  if (segment_offset_ >= segment_bytes_ || file_->Size() != segment_offset_) {
    out.status = RollSegmentLocked();
    if (!out.status.ok()) return out;
  }

  // Continuous batch layout: one header frame, then the record frames
  // back-to-back, CRC'd as a unit (readers drop a torn batch atomically).
  BatchHeader header;
  header.record_count = static_cast<uint32_t>(batch.frame_offsets.size());
  header.batch_bytes = batch.frames.size();
  header.batch_crc =
      crc32c::Mask(crc32c::Value(batch.frames.data(), batch.frames.size()));
  std::string header_frame;
  EncodeBatchHeaderFrame(&header_frame, header);

  uint64_t base = segment_offset_ + header_frame.size();
  out.ptrs.reserve(batch.frame_offsets.size());
  for (size_t i = 0; i < batch.frame_offsets.size(); i++) {
    uint32_t begin = batch.frame_offsets[i];
    uint32_t end = (i + 1 < batch.frame_offsets.size())
                       ? batch.frame_offsets[i + 1]
                       : static_cast<uint32_t>(batch.frames.size());
    LogPtr ptr;
    ptr.instance = instance_;
    ptr.segment = segment_;
    ptr.offset = base + begin;
    ptr.size = end - begin;
    out.ptrs.push_back(ptr);
  }

  out.status = file_->Append(Slice(header_frame));
  if (!out.status.ok()) return out;
  out.status = file_->Append(Slice(batch.frames));
  if (!out.status.ok()) return out;

  sim::SimContext* ctx = sim::SimContext::Current();
  sim::VirtualTime sync_begin = ctx != nullptr ? ctx->now() : 0;
  uint64_t ack_us = 0;
  out.status = file_->SyncWith(batch.ack, &ack_us);
  if (!out.status.ok()) return out;
  out.ack_us = static_cast<sim::VirtualTime>(ack_us);

  if (ctx != nullptr) {
    static obs::HistogramMetric* quorum_wait =
        obs::MetricsRegistry::Global().histogram("log.append.quorum_wait_us");
    quorum_wait->Observe(
        static_cast<double>(out.ack_us > sync_begin ? out.ack_us - sync_begin
                                                    : 0));
  }

  uint64_t written = header_frame.size() + batch.frames.size();
  segment_offset_ += written;
  bytes_written_ += written;
  static obs::Counter* append_bytes =
      obs::MetricsRegistry::Global().counter("log.append.bytes");
  append_bytes->Add(written);
  return out;
}

LogPosition LogWriter::Position() const {
  MutexLock l(mu_);
  return LogPosition{segment_, segment_offset_};
}

uint64_t LogWriter::next_lsn() const {
  MutexLock l(mu_);
  return next_lsn_;
}

uint64_t LogWriter::bytes_written() const {
  MutexLock l(mu_);
  return bytes_written_;
}

size_t LogWriter::pending_records() const {
  MutexLock l(mu_);
  return open_.frame_offsets.size();
}

}  // namespace logbase::log

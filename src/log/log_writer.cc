#include "src/log/log_writer.h"

#include <cstdio>
#include <cstdlib>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/crc32c.h"

namespace logbase::log {

namespace {

/// Maximum flushed-but-unacked batches in flight at the DFS. > 1 pipelines
/// appends: batch k+1 ships before batch k's ack lands.
constexpr int kPipelineDepth = 4;

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
                     uint64_t segment_bytes, AppendQueueOptions queue_options)
    : fs_(fs),
      dir_(std::move(dir)),
      instance_(instance),
      segment_bytes_(segment_bytes),
      queue_options_(queue_options) {
  queue_ = std::make_unique<AppendQueue>(
      [this](const AppendQueue::SealedBatch& batch) {
        return SinkEntry(batch);
      },
      queue_options_);
}

Status LogWriter::Open(uint64_t first_lsn) {
  MutexLock l(mu_);
  next_lsn_ = first_lsn;
  // Drop any submissions queued before a crash/restart: they were never
  // acked, and flushing them into the fresh segment would resurrect writes
  // whose callers already saw the server die.
  queue_ = std::make_unique<AppendQueue>(
      [this](const AppendQueue::SealedBatch& batch) {
        return SinkEntry(batch);
      },
      queue_options_);
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
  LOGBASE_RETURN_NOT_OK(queue_->Flush());
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

  std::string frames;
  std::vector<uint32_t> offsets;
  offsets.reserve(records->size());
  for (LogRecord& record : *records) {
    record.key.lsn = next_lsn_++;
    offsets.push_back(static_cast<uint32_t>(frames.size()));
    record.EncodeTo(&frames);
  }
  AppendTicket ticket = queue_->Submit(Slice(frames), offsets, ack);
  QueueDepthGauge()->Set(static_cast<int64_t>(queue_->pending_records()));
  return ticket;
}

Status LogWriter::Wait(const AppendTicket& ticket, std::vector<LogPtr>* ptrs) {
  obs::Span span("log.append");
  if (ptrs != nullptr) ptrs->clear();
  if (!ticket.valid()) return Status::OK();
  MutexLock l(mu_);
  sim::VirtualTime ack_us = 0;
  Status status = queue_->Wait(ticket, ptrs, &ack_us);
  QueueDepthGauge()->Set(static_cast<int64_t>(queue_->pending_records()));
  LOGBASE_RETURN_NOT_OK(status);
  sim::SimContext* ctx = sim::SimContext::Current();
  if (ctx != nullptr && ack_us > 0) ctx->AdvanceTo(ack_us);
  return Status::OK();
}

Status LogWriter::Flush() {
  MutexLock l(mu_);
  Status status = queue_->Flush();
  QueueDepthGauge()->Set(static_cast<int64_t>(queue_->pending_records()));
  return status;
}

AppendQueue::FlushOutcome LogWriter::FlushSealedBatchLocked(
    const AppendQueue::SealedBatch& batch) {
  AppendQueue::FlushOutcome out;
  if (file_ == nullptr) {
    out.status = Status::InvalidArgument("log writer not open");
    return out;
  }
  if (segment_offset_ >= segment_bytes_) {
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

  SyncPolicy policy;
  policy.ack = batch.ack == AckMode::kAll ? SyncPolicy::Ack::kAll
                                          : SyncPolicy::Ack::kQuorum;
  policy.max_inflight = kPipelineDepth;
  sim::SimContext* ctx = sim::SimContext::Current();
  sim::VirtualTime sync_begin = ctx != nullptr ? ctx->now() : 0;
  SyncReceipt receipt;
  out.status = file_->SyncWith(policy, &receipt);
  if (!out.status.ok()) return out;
  out.ack_us = static_cast<sim::VirtualTime>(receipt.ack_us);

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
  return queue_->pending_records();
}

}  // namespace logbase::log

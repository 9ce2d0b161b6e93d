#include "src/log/log_reader.h"

#include <algorithm>
#include <cstdio>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace logbase::log {

namespace {
// Sequential scans read the log in large chunks so the simulated disk sees
// sequential transfers rather than per-record requests.
constexpr size_t kScanChunk = 1ull << 20;
}  // namespace

LogReader::LogReader(FileSystem* fs, std::string dir, uint32_t instance)
    : fs_(fs), dir_(std::move(dir)), instance_(instance) {}

Result<RandomAccessFile*> LogReader::OpenSegment(uint32_t segment) {
  MutexLock l(mu_);
  auto it = open_segments_.find(segment);
  if (it != open_segments_.end()) return it->second.get();
  auto file = fs_->NewRandomAccessFile(SegmentFileName(dir_, segment));
  if (!file.ok()) return file.status();
  RandomAccessFile* raw = file->get();
  open_segments_[segment] = std::move(*file);
  return raw;
}

Result<LogRecord> LogReader::Read(const LogPtr& ptr) {
  auto file = OpenSegment(ptr.segment);
  if (!file.ok()) return file.status();
  auto data = (*file)->Read(ptr.offset, ptr.size);
  if (!data.ok()) return data.status();
  if (data->size() != ptr.size) {
    return Status::Corruption("short read at log pointer");
  }
  Slice input(*data);
  LogRecord record;
  LOGBASE_RETURN_NOT_OK(LogRecord::DecodeFrom(&input, &record));
  return record;
}

Result<std::vector<uint32_t>> LogReader::ListSegments() const {
  auto paths = fs_->List(dir_ + "/segment_");
  if (!paths.ok()) return paths.status();
  std::vector<uint32_t> segments;
  for (const std::string& path : *paths) {
    uint32_t seg = 0;
    if (ParseSegmentNumber(path, &seg)) segments.push_back(seg);
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

Result<std::unique_ptr<LogReader::Scanner>> LogReader::NewScanner(
    LogPosition start, uint32_t limit_segment_exclusive) {
  auto segments = ListSegments();
  if (!segments.ok()) return segments.status();
  std::vector<uint32_t> wanted;
  for (uint32_t seg : *segments) {
    if (seg >= start.segment && seg < limit_segment_exclusive) {
      wanted.push_back(seg);
    }
  }
  return std::unique_ptr<Scanner>(
      new Scanner(this, std::move(wanted), start));
}

Result<std::unique_ptr<LogReader::Scanner>> LogReader::NewSegmentScanner(
    uint32_t segment) {
  std::vector<uint32_t> wanted{segment};
  return std::unique_ptr<Scanner>(
      new Scanner(this, std::move(wanted), LogPosition{segment, 0}));
}

LogReader::Scanner::Scanner(LogReader* reader, std::vector<uint32_t> segments,
                            LogPosition start)
    : reader_(reader), segments_(std::move(segments)) {
  if (!segments_.empty()) {
    auto file = reader_->fs_->NewRandomAccessFile(
        SegmentFileName(reader_->dir_, segments_[0]));
    if (file.ok()) {
      file_ = std::move(*file);
      file_offset_ =
          (segments_[0] == start.segment) ? start.offset : 0;
    } else {
      status_ = file.status();
    }
  }
  if (status_.ok()) Next();
}

bool LogReader::Scanner::Ensure(size_t want) {
  while (status_.ok()) {
    if (buffer_.size() - buffer_pos_ >= want) return true;
    if (file_ == nullptr) return false;

    // Compact consumed prefix.
    if (buffer_pos_ > 0) {
      buffer_.erase(0, buffer_pos_);
      file_offset_ += buffer_pos_;
      buffer_pos_ = 0;
    }
    size_t need = std::max(want, kScanChunk);
    auto chunk =
        file_->Read(file_offset_ + buffer_.size(), need - buffer_.size());
    if (!chunk.ok()) {
      status_ = chunk.status();
      return false;
    }
    if (!chunk->empty()) {
      buffer_ += *chunk;
      if (buffer_.size() - buffer_pos_ >= want) return true;
      // A short read means end of this segment's current data.
    }
    if (chunk->empty() || buffer_.size() - buffer_pos_ < want) {
      if (buffer_.size() - buffer_pos_ > 0 &&
          segment_index_ + 1 >= segments_.size()) {
        // Trailing partial frame at the very end of the log: a write in
        // flight when the server died. Recovery stops cleanly here.
        return false;
      }
      if (segment_index_ + 1 >= segments_.size()) {
        file_.reset();
        return false;
      }
      segment_index_++;
      buffer_.clear();
      buffer_pos_ = 0;
      file_offset_ = 0;
      auto file = reader_->fs_->NewRandomAccessFile(
          SegmentFileName(reader_->dir_, segments_[segment_index_]));
      if (!file.ok()) {
        status_ = file.status();
        return false;
      }
      file_ = std::move(*file);
    }
  }
  return false;
}

void LogReader::Scanner::Next() {
  valid_ = false;
  if (!status_.ok()) return;
  for (;;) {
    if (!Ensure(kLogFrameHeaderSize)) return;
    // Ensure() skips a torn tail when it crosses into the next segment;
    // anything read before the switch (frame length, batch header) then
    // described discarded bytes — detect the switch and reparse fresh,
    // also when the next segment is shorter than the discarded bytes asked
    // for (a torn batch ahead of a short segment).
    size_t seg_before = segment_index_;
    uint32_t len = DecodeFixed32(buffer_.data() + buffer_pos_ + 4);
    if (!Ensure(kLogFrameHeaderSize + len)) {
      if (segment_index_ != seg_before) continue;
      return;
    }
    if (segment_index_ != seg_before) continue;

    Slice frame(buffer_.data() + buffer_pos_, kLogFrameHeaderSize + len);
    Slice payload(frame.data() + kLogFrameHeaderSize, len);
    if (IsBatchHeaderPayload(payload)) {
      // A group-commit batch header: validate the whole batch, then consume
      // the header and surface its records one by one.
      BatchHeader header;
      Status hs = DecodeBatchHeaderFrame(frame, &header);
      if (!hs.ok()) {
        status_ = hs;
        return;
      }
      // Batch atomicity: the batch must be fully present or it is dropped
      // whole. A short tail here is a quorum-durable batch this replica has
      // not fully received yet — the scan stops cleanly *before* the
      // header, so a later poll retries once the straggler catches up.
      size_t whole = kLogFrameHeaderSize + len +
                     static_cast<size_t>(header.batch_bytes);
      if (!Ensure(whole)) {
        if (segment_index_ != seg_before) continue;
        return;
      }
      if (segment_index_ != seg_before) continue;
      Slice body(buffer_.data() + buffer_pos_ + kLogFrameHeaderSize + len,
                 static_cast<size_t>(header.batch_bytes));
      if (crc32c::Unmask(header.batch_crc) !=
          crc32c::Value(body.data(), body.size())) {
        status_ = Status::Corruption("log batch checksum mismatch");
        return;
      }
      buffer_pos_ += kLogFrameHeaderSize + len;
      continue;
    }

    Status s = LogRecord::DecodeFrom(&frame, &record_);
    if (!s.ok()) {
      status_ = s;
      return;
    }
    ptr_.instance = reader_->instance_;
    ptr_.segment = segments_[segment_index_];
    ptr_.offset = file_offset_ + buffer_pos_;
    ptr_.size = kLogFrameHeaderSize + len;
    buffer_pos_ += ptr_.size;
    valid_ = true;
    return;
  }
}

}  // namespace logbase::log

// Reading the log repository: random record fetches through index pointers
// (the one-disk-seek read path of §3.5) and buffered sequential scans over
// segments (recovery redo, compaction input, full table scans).

#ifndef LOGBASE_LOG_LOG_READER_H_
#define LOGBASE_LOG_LOG_READER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/log/log_record.h"
#include "src/log/log_writer.h"
#include "src/util/io.h"
#include "src/util/result.h"

#include "src/util/ordered_mutex.h"

namespace logbase::log {

class LogReader {
 public:
  /// `instance` is stamped into the LogPtrs the scanner reports (the log
  /// instance this directory belongs to).
  LogReader(FileSystem* fs, std::string dir, uint32_t instance = 0);

  /// Fetches the record a LogPtr points at (one positional read).
  Result<LogRecord> Read(const LogPtr& ptr);

  /// Segment numbers present in the log directory, ascending.
  Result<std::vector<uint32_t>> ListSegments() const;

  /// Sequential scanner over records from `start` to the end of the log.
  class Scanner {
   public:
    bool Valid() const { return valid_; }
    /// Non-ok when the scan stopped on corruption/I/O error (a clean end of
    /// log leaves status ok).
    Status status() const { return status_; }
    const LogRecord& record() const { return record_; }
    /// Location of the current record.
    LogPtr ptr() const { return ptr_; }
    void Next();

   private:
    friend class LogReader;
    Scanner(LogReader* reader, std::vector<uint32_t> segments,
            LogPosition start);

    /// Refills buffer_ so it holds at least `want` bytes from the current
    /// position, switching segments at EOF. False at end of log.
    bool Ensure(size_t want);

    LogReader* reader_;
    std::vector<uint32_t> segments_;
    size_t segment_index_ = 0;
    std::unique_ptr<RandomAccessFile> file_;
    uint64_t file_offset_ = 0;   // offset of buffer_ start in current file
    size_t read_size_;           // bytes the next read asks for, at least
    std::string buffer_;
    size_t buffer_pos_ = 0;
    bool valid_ = false;
    LogRecord record_;
    LogPtr ptr_;
    Status status_;
  };

  /// Scans from `start` (default: the whole log). Segments numbered >=
  /// `limit_segment_exclusive` are skipped — recovery redo passes 1 << 24 to
  /// exclude compaction outputs (always covered by the compaction's own
  /// checkpoint).
  Result<std::unique_ptr<Scanner>> NewScanner(
      LogPosition start = LogPosition{0, 0},
      uint32_t limit_segment_exclusive = ~0u);

  /// Scans exactly one segment (compaction input iteration).
  Result<std::unique_ptr<Scanner>> NewSegmentScanner(uint32_t segment);

 private:
  friend class Scanner;
  Result<RandomAccessFile*> OpenSegment(uint32_t segment);

  FileSystem* const fs_;
  const std::string dir_;
  const uint32_t instance_;
  OrderedMutex mu_{lockrank::kLogReader, "log.reader"};
  // Values are stable: an opened segment file lives for the reader's
  // lifetime, so callers use the returned raw pointer outside the lock
  // (RandomAccessFile is safe for concurrent readers).
  std::map<uint32_t, std::unique_ptr<RandomAccessFile>> open_segments_
      GUARDED_BY(mu_);
};

}  // namespace logbase::log

#endif  // LOGBASE_LOG_LOG_READER_H_

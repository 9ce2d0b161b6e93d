// The log record format (paper §3.4): a record is <LogKey, Data> where
// LogKey = {LSN, table, tablet} identifies the write and Data =
// <RowKey, Value> carries it; RowKey concatenates the record's primary key,
// the updated column group and the write timestamp. Deletes are persisted as
// *invalidated* entries with a null value (§3.6.3); transaction commits are
// COMMIT records (§3.7.2).
//
// On-disk frame:  [masked crc32c fixed32][payload_len fixed32][payload]

#ifndef LOGBASE_LOG_LOG_RECORD_H_
#define LOGBASE_LOG_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "src/util/result.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace logbase::log {

enum class LogRecordType : uint8_t {
  kData = 1,        // an insert/update
  kInvalidate = 2,  // a delete (null value)
  kCommit = 3,      // a transaction commit record
  kBatchHeader = 4,  // group-commit batch header (not a data record)
};

/// Write-identifying metadata.
struct LogKey {
  uint64_t lsn = 0;
  uint32_t table_id = 0;
  uint32_t tablet_id = 0;
};

/// Identity of the updated cell group: primary key ⊕ column group ⊕ write
/// timestamp (the version number — the commit timestamp of the writing
/// transaction).
struct RowKey {
  std::string primary_key;
  uint32_t column_group = 0;
  uint64_t timestamp = 0;
};

struct LogRecord {
  LogRecordType type = LogRecordType::kData;
  LogKey key;
  /// 0 for auto-committed single-record writes; otherwise the transaction
  /// whose COMMIT record makes this entry visible.
  uint64_t txn_id = 0;
  RowKey row;         // kData / kInvalidate
  std::string value;  // kData payload
  /// kCommit: the commit timestamp assigned by the timestamp authority.
  uint64_t commit_ts = 0;

  /// Appends the full frame (header + payload) to dst.
  void EncodeTo(std::string* dst) const;

  /// Decodes one frame from the front of `input`, consuming it.
  /// Corruption (bad CRC / truncation) is reported as Status::Corruption.
  static Status DecodeFrom(Slice* input, LogRecord* record);
};

/// Frame header size: crc + length.
inline constexpr uint32_t kLogFrameHeaderSize = 8;

/// Group-commit batch header (BtrLog-style continuous layout): every batch
/// the dispatcher flushes is written as one header frame followed by
/// `record_count` back-to-back record frames covering `batch_bytes` bytes,
/// protected as a unit by `batch_crc`. The header is a regular CRC'd frame
/// whose payload leads with LogRecordType::kBatchHeader, so scanners that
/// stop on a torn header frame behave exactly as for a torn record. A batch
/// is atomic to readers: a tail cut mid-batch (a replica that missed part
/// of a quorum-acked pipeline append) drops the whole batch cleanly.
struct BatchHeader {
  uint32_t record_count = 0;
  /// Bytes of record frames following the header frame.
  uint64_t batch_bytes = 0;
  /// Masked crc32c over those bytes.
  uint32_t batch_crc = 0;
};

/// Appends the full header frame (frame header + payload) to dst.
void EncodeBatchHeaderFrame(std::string* dst, const BatchHeader& header);

/// True when `payload` (the bytes after a frame header) is a batch header.
bool IsBatchHeaderPayload(const Slice& payload);

/// Decodes a whole batch-header frame (verifying the frame CRC).
/// Corruption on CRC mismatch / malformed payload; InvalidArgument when the
/// frame is not a batch header.
Status DecodeBatchHeaderFrame(Slice frame, BatchHeader* header);

/// Location of a record in the log repository: the index's Ptr component
/// (paper §3.5 — file number, offset in the file, record size). `instance`
/// additionally identifies which server's log instance holds the segment, so
/// tablets reassigned after a permanent server failure can keep following
/// pointers into the dead server's log in the shared DFS (§3.8).
struct LogPtr {
  uint32_t instance = 0;
  uint32_t segment = 0;
  uint64_t offset = 0;
  uint32_t size = 0;  // whole frame

  bool operator==(const LogPtr& o) const {
    return instance == o.instance && segment == o.segment &&
           offset == o.offset && size == o.size;
  }
};

/// Fixed 20-byte encoding used inside index entries and checkpoints.
void EncodeLogPtr(std::string* dst, const LogPtr& ptr);
bool DecodeLogPtr(Slice* input, LogPtr* ptr);

}  // namespace logbase::log

#endif  // LOGBASE_LOG_LOG_RECORD_H_

#include "src/log/log_record.h"

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace logbase::log {

namespace {

void EncodePayload(const LogRecord& record, std::string* dst) {
  dst->push_back(static_cast<char>(record.type));
  PutVarint64(dst, record.key.lsn);
  PutVarint32(dst, record.key.table_id);
  PutVarint32(dst, record.key.tablet_id);
  PutVarint64(dst, record.txn_id);
  PutLengthPrefixedSlice(dst, Slice(record.row.primary_key));
  PutVarint32(dst, record.row.column_group);
  PutFixed64(dst, record.row.timestamp);
  PutLengthPrefixedSlice(dst, Slice(record.value));
  PutFixed64(dst, record.commit_ts);
}

// A frame is [masked crc32c of payload][payload length][payload]. The
// payload is encoded in place after the header, which is filled in last.
size_t BeginFrame(std::string* dst) {
  const size_t frame = dst->size();
  dst->resize(frame + kLogFrameHeaderSize);
  return frame;
}

void EndFrame(std::string* dst, size_t frame) {
  char* header = dst->data() + frame;
  const char* payload = header + kLogFrameHeaderSize;
  const size_t len = dst->size() - frame - kLogFrameHeaderSize;
  EncodeFixed32(header, crc32c::Mask(crc32c::Value(payload, len)));
  EncodeFixed32(header + 4, static_cast<uint32_t>(len));
}

}  // namespace

void LogRecord::EncodeTo(std::string* dst) const {
  const size_t frame = BeginFrame(dst);
  EncodePayload(*this, dst);
  EndFrame(dst, frame);
}

Status LogRecord::DecodeFrom(Slice* input, LogRecord* record) {
  uint32_t masked_crc, len;
  if (!GetFixed32(input, &masked_crc) || !GetFixed32(input, &len)) {
    return Status::Corruption("truncated log frame header");
  }
  if (input->size() < len) {
    return Status::Corruption("truncated log frame payload");
  }
  Slice payload(input->data(), len);
  input->remove_prefix(len);

  if (crc32c::Unmask(masked_crc) !=
      crc32c::Value(payload.data(), payload.size())) {
    return Status::Corruption("log frame checksum mismatch");
  }

  if (payload.empty()) return Status::Corruption("empty log payload");
  record->type = static_cast<LogRecordType>(payload[0]);
  payload.remove_prefix(1);
  if (record->type != LogRecordType::kData &&
      record->type != LogRecordType::kInvalidate &&
      record->type != LogRecordType::kCommit &&
      record->type != LogRecordType::kPrepare &&
      record->type != LogRecordType::kAbort) {
    return Status::Corruption("unknown log record type");
  }

  Slice primary_key, value;
  if (!GetVarint64(&payload, &record->key.lsn) ||
      !GetVarint32(&payload, &record->key.table_id) ||
      !GetVarint32(&payload, &record->key.tablet_id) ||
      !GetVarint64(&payload, &record->txn_id) ||
      !GetLengthPrefixedSlice(&payload, &primary_key) ||
      !GetVarint32(&payload, &record->row.column_group) ||
      !GetFixed64(&payload, &record->row.timestamp) ||
      !GetLengthPrefixedSlice(&payload, &value) ||
      !GetFixed64(&payload, &record->commit_ts)) {
    return Status::Corruption("malformed log payload");
  }
  record->row.primary_key = primary_key.ToString();
  record->value = value.ToString();
  return Status::OK();
}

std::string EncodeParticipants(const std::vector<uint32_t>& instances) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(instances.size()));
  for (uint32_t instance : instances) PutVarint32(&out, instance);
  return out;
}

bool DecodeParticipants(Slice value, std::vector<uint32_t>* instances) {
  uint32_t count = 0;
  if (!GetVarint32(&value, &count)) return false;
  instances->clear();
  for (uint32_t i = 0; i < count; i++) {
    uint32_t instance = 0;
    if (!GetVarint32(&value, &instance)) return false;
    instances->push_back(instance);
  }
  return value.empty();
}

void EncodeBatchHeaderFrame(std::string* dst, const BatchHeader& header) {
  const size_t frame = BeginFrame(dst);
  dst->push_back(static_cast<char>(LogRecordType::kBatchHeader));
  PutVarint32(dst, header.record_count);
  PutVarint64(dst, header.batch_bytes);
  PutFixed32(dst, header.batch_crc);
  EndFrame(dst, frame);
}

bool IsBatchHeaderPayload(const Slice& payload) {
  return !payload.empty() &&
         static_cast<LogRecordType>(payload[0]) == LogRecordType::kBatchHeader;
}

Status DecodeBatchHeaderFrame(Slice frame, BatchHeader* header) {
  uint32_t masked_crc, len;
  if (!GetFixed32(&frame, &masked_crc) || !GetFixed32(&frame, &len) ||
      frame.size() < len) {
    return Status::Corruption("truncated batch header frame");
  }
  Slice payload(frame.data(), len);
  if (crc32c::Unmask(masked_crc) !=
      crc32c::Value(payload.data(), payload.size())) {
    return Status::Corruption("batch header checksum mismatch");
  }
  if (!IsBatchHeaderPayload(payload)) {
    return Status::InvalidArgument("not a batch header frame");
  }
  payload.remove_prefix(1);
  uint64_t batch_bytes = 0;
  if (!GetVarint32(&payload, &header->record_count) ||
      !GetVarint64(&payload, &batch_bytes) ||
      !GetFixed32(&payload, &header->batch_crc)) {
    return Status::Corruption("malformed batch header payload");
  }
  header->batch_bytes = batch_bytes;
  return Status::OK();
}

void EncodeLogPtr(std::string* dst, const LogPtr& ptr) {
  PutFixed32(dst, ptr.instance);
  PutFixed32(dst, ptr.segment);
  PutFixed64(dst, ptr.offset);
  PutFixed32(dst, ptr.size);
}

bool DecodeLogPtr(Slice* input, LogPtr* ptr) {
  return GetFixed32(input, &ptr->instance) &&
         GetFixed32(input, &ptr->segment) &&
         GetFixed64(input, &ptr->offset) && GetFixed32(input, &ptr->size);
}

}  // namespace logbase::log

#include "src/sstable/table_builder.h"

#include <cassert>

#include "src/util/crc32c.h"

namespace logbase::sstable {

namespace {
/// Bloom filter density: about a 1% false-positive rate.
constexpr int kBloomBitsPerKey = 10;
}  // namespace

TableBuilder::TableBuilder(TableOptions options, WritableFile* file)
    : options_(std::move(options)),
      file_(file),
      data_block_(options_.restart_interval),
      index_block_(1),
      filter_(kBloomBitsPerKey) {}

Status TableBuilder::Add(const Slice& key, const Slice& value) {
  assert(!finished_);
  if (pending_index_entry_) {
    // The previous block's last key separates it from this key.
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(last_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  if (options_.enable_bloom) {
    Slice filter_key = options_.filter_key_extractor
                           ? options_.filter_key_extractor(key)
                           : key;
    filter_.AddKey(filter_key);
  }

  data_block_.Add(key, value);
  last_key_.assign(key.data(), key.size());
  num_entries_++;

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    return FlushDataBlock();
  }
  return Status::OK();
}

Status TableBuilder::FlushDataBlock() {
  if (data_block_.empty()) return Status::OK();
  Slice contents = data_block_.Finish();
  LOGBASE_RETURN_NOT_OK(WriteRawBlock(contents, &pending_handle_));
  data_block_.Reset();
  pending_index_entry_ = true;
  return Status::OK();
}

Status TableBuilder::WriteRawBlock(const Slice& contents,
                                   BlockHandle* handle) {
  handle->offset = offset_;
  handle->size = contents.size();
  LOGBASE_RETURN_NOT_OK(file_->Append(contents));
  char trailer[4];
  EncodeFixed32(trailer,
                crc32c::Mask(crc32c::Value(contents.data(), contents.size())));
  LOGBASE_RETURN_NOT_OK(file_->Append(Slice(trailer, 4)));
  offset_ += contents.size() + 4;
  return Status::OK();
}

Status TableBuilder::Finish() {
  assert(!finished_);
  LOGBASE_RETURN_NOT_OK(FlushDataBlock());
  if (pending_index_entry_) {
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(Slice(last_key_), Slice(handle_encoding));
    pending_index_entry_ = false;
  }

  BlockHandle filter_handle;
  if (options_.enable_bloom) {
    std::string filter_contents = filter_.Finish();
    LOGBASE_RETURN_NOT_OK(WriteRawBlock(Slice(filter_contents),
                                        &filter_handle));
  }

  BlockHandle index_handle;
  Slice index_contents = index_block_.Finish();
  LOGBASE_RETURN_NOT_OK(WriteRawBlock(index_contents, &index_handle));

  std::string footer;
  PutFixed64(&footer, index_handle.offset);
  PutFixed64(&footer, index_handle.size);
  PutFixed64(&footer, filter_handle.offset);
  PutFixed64(&footer, filter_handle.size);
  PutFixed64(&footer, num_entries_);
  PutFixed64(&footer, kTableMagic);
  LOGBASE_RETURN_NOT_OK(file_->Append(Slice(footer)));
  offset_ += footer.size();
  finished_ = true;
  return Status::OK();
}

}  // namespace logbase::sstable

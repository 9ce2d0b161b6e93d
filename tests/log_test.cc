// Tests for the log repository: record codec, writer (LSN assignment, group
// commit, segment rolling), reader (pointer fetch, sequential scan), and
// corruption handling.

#include <gtest/gtest.h>

#include "src/dfs/dfs.h"
#include "src/log/log_reader.h"
#include "src/log/log_record.h"
#include "src/log/log_writer.h"
#include "src/util/coding.h"
#include "src/util/io.h"
#include "src/util/random.h"

namespace logbase::log {
namespace {

LogRecord MakeData(const std::string& key, const std::string& value,
                   uint64_t ts, uint32_t table = 1, uint32_t tablet = 7) {
  LogRecord record;
  record.type = LogRecordType::kData;
  record.key.table_id = table;
  record.key.tablet_id = tablet;
  record.row.primary_key = key;
  record.row.column_group = tablet >> 20;
  record.row.timestamp = ts;
  record.value = value;
  record.commit_ts = ts;
  return record;
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord record = MakeData("user42", "payload bytes", 99);
  record.txn_id = 1234;
  std::string buf;
  record.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), kLogFrameHeaderSize + DecodeFixed32(buf.data() + 4));

  Slice input(buf);
  LogRecord decoded;
  ASSERT_TRUE(LogRecord::DecodeFrom(&input, &decoded).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(decoded.type, LogRecordType::kData);
  EXPECT_EQ(decoded.row.primary_key, "user42");
  EXPECT_EQ(decoded.value, "payload bytes");
  EXPECT_EQ(decoded.row.timestamp, 99u);
  EXPECT_EQ(decoded.txn_id, 1234u);
  EXPECT_EQ(decoded.key.table_id, 1u);
  EXPECT_EQ(decoded.key.tablet_id, 7u);
}

TEST(LogRecordTest, FrameBytesAreFixed) {
  // The on-disk frames of a data record and a batch header, appended after
  // bytes already in the buffer: a format change fails here, not in a
  // recovery of an old log.
  std::string buf = "ab";
  LogRecord record;
  record.key.lsn = 300;
  record.key.table_id = 2;
  record.key.tablet_id = 9;
  record.txn_id = 77;
  record.row.primary_key = "user42";
  record.row.column_group = 1;
  record.row.timestamp = 1234567;
  record.value = "payload";
  record.commit_ts = 1234568;
  record.EncodeTo(&buf);
  EncodeBatchHeaderFrame(&buf, BatchHeader{5, 4000, 0xdeadbeef});
  std::string hex;
  for (unsigned char c : buf) {
    hex += "0123456789abcdef"[c >> 4];
    hex += "0123456789abcdef"[c & 15];
  }
  EXPECT_EQ(hex,
            "6162"
            "d3fdccde26000000"
            "01ac0202094d067573657234320187d6120000000000077061796c6f616488d6"
            "120000000000"
            "d80ff1a508000000"
            "0405a01fefbeadde");
}

TEST(LogRecordTest, PropertyRandomRoundTrip) {
  Random rnd(404);
  for (int i = 0; i < 300; i++) {
    LogRecord record;
    record.type = static_cast<LogRecordType>(1 + rnd.Uniform(3));
    record.key.lsn = rnd.Next();
    record.key.table_id = static_cast<uint32_t>(rnd.Next());
    record.key.tablet_id = static_cast<uint32_t>(rnd.Next());
    record.txn_id = rnd.Next();
    record.row.primary_key = std::string(rnd.Uniform(64), 'k');
    record.row.column_group = static_cast<uint32_t>(rnd.Uniform(16));
    record.row.timestamp = rnd.Next();
    record.value = std::string(rnd.Uniform(256), 'v');
    record.commit_ts = rnd.Next();

    std::string buf;
    record.EncodeTo(&buf);
    Slice input(buf);
    LogRecord decoded;
    ASSERT_TRUE(LogRecord::DecodeFrom(&input, &decoded).ok());
    EXPECT_EQ(decoded.key.lsn, record.key.lsn);
    EXPECT_EQ(decoded.row.primary_key, record.row.primary_key);
    EXPECT_EQ(decoded.row.timestamp, record.row.timestamp);
    EXPECT_EQ(decoded.value, record.value);
    EXPECT_EQ(decoded.commit_ts, record.commit_ts);
  }
}

TEST(LogRecordTest, CrcCatchesCorruption) {
  LogRecord record = MakeData("k", "v", 1);
  std::string buf;
  record.EncodeTo(&buf);
  buf[buf.size() - 1] ^= 0x1;
  Slice input(buf);
  LogRecord decoded;
  EXPECT_TRUE(LogRecord::DecodeFrom(&input, &decoded).IsCorruption());
}

TEST(LogRecordTest, TruncationDetected) {
  LogRecord record = MakeData("k", "v", 1);
  std::string buf;
  record.EncodeTo(&buf);
  buf.resize(buf.size() / 2);
  Slice input(buf);
  LogRecord decoded;
  EXPECT_TRUE(LogRecord::DecodeFrom(&input, &decoded).IsCorruption());
}

TEST(LogPtrTest, EncodeDecode) {
  LogPtr ptr{3, 42, 123456, 789};
  std::string buf;
  EncodeLogPtr(&buf, ptr);
  Slice input(buf);
  LogPtr decoded;
  ASSERT_TRUE(DecodeLogPtr(&input, &decoded));
  EXPECT_EQ(decoded, ptr);
}

struct LogFixture {
  MemFileSystem fs;
  LogWriter writer{&fs, "/log", /*instance=*/5, /*segment_bytes=*/4096};
  LogReader reader{&fs, "/log", /*instance=*/5};

  LogFixture() { EXPECT_TRUE(writer.Open().ok()); }
};

TEST(LogWriterTest, AppendAssignsLsnsAndPtrs) {
  LogFixture f;
  auto p1 = f.writer.Append(MakeData("a", "1", 1));
  auto p2 = f.writer.Append(MakeData("b", "2", 2));
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->instance, 5u);
  EXPECT_EQ(p1->segment, p2->segment);
  // Separate appends are separate batches: the second record sits past the
  // first plus the next batch's header frame.
  EXPECT_GT(p2->offset, p1->offset + p1->size);

  auto r1 = f.reader.Read(*p1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->row.primary_key, "a");
  EXPECT_EQ(r1->key.lsn, 1u);
  auto r2 = f.reader.Read(*p2);
  EXPECT_EQ(r2->key.lsn, 2u);
}

TEST(LogWriterTest, BatchSharesOneAppend) {
  LogFixture f;
  std::vector<LogRecord> batch;
  for (int i = 0; i < 10; i++) {
    batch.push_back(MakeData("k" + std::to_string(i), "v", i));
  }
  std::vector<LogPtr> ptrs;
  ASSERT_TRUE(f.writer.AppendBatch(&batch, &ptrs).ok());
  ASSERT_EQ(ptrs.size(), 10u);
  for (size_t i = 1; i < ptrs.size(); i++) {
    EXPECT_EQ(ptrs[i].offset, ptrs[i - 1].offset + ptrs[i - 1].size);
  }
  // Each pointer resolves to its record.
  for (size_t i = 0; i < ptrs.size(); i++) {
    auto rec = f.reader.Read(ptrs[i]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->row.primary_key, "k" + std::to_string(i));
  }
}

TEST(LogWriterTest, RollsSegmentsAtSizeLimit) {
  LogFixture f;  // 4 KB segments
  std::string big_value(1500, 'x');
  LogPtr first, last;
  for (int i = 0; i < 10; i++) {
    auto ptr = f.writer.Append(MakeData("k", big_value, i));
    ASSERT_TRUE(ptr.ok());
    if (i == 0) first = *ptr;
    last = *ptr;
  }
  EXPECT_GT(last.segment, first.segment);
  auto segments = f.reader.ListSegments();
  ASSERT_TRUE(segments.ok());
  EXPECT_GT(segments->size(), 1u);
}

TEST(LogWriterTest, ReopenContinuesInFreshSegment) {
  MemFileSystem fs;
  uint32_t old_segment;
  {
    LogWriter writer(&fs, "/log", 0, 4096);
    ASSERT_TRUE(writer.Open().ok());
    auto ptr = writer.Append(MakeData("a", "1", 1));
    old_segment = ptr->segment;
  }
  LogWriter writer(&fs, "/log", 0, 4096);
  ASSERT_TRUE(writer.Open(/*first_lsn=*/100).ok());
  auto ptr = writer.Append(MakeData("b", "2", 2));
  EXPECT_GT(ptr->segment, old_segment);
  LogReader reader(&fs, "/log");
  EXPECT_EQ(reader.Read(*ptr)->key.lsn, 100u);
}

// A batch whose sync fails after its first chunk reached the replicas
// leaves a torn tail in its segment. The next batch starts a fresh segment,
// so its pointers name its own bytes, and a scan skips the torn batch.
TEST(LogWriterTest, FailedAppendTornAcrossBlocksStartsFreshSegment) {
  dfs::DfsOptions options;
  options.num_nodes = 3;
  options.block_size = 4096;
  dfs::Dfs dfs(options);
  dfs::DfsFileSystem fs(&dfs, /*client_node=*/0);
  LogWriter writer(&fs, "/log", /*instance=*/0, /*segment_bytes=*/1 << 20);
  ASSERT_TRUE(writer.Open().ok());
  LogReader reader(&fs, "/log", /*instance=*/0);

  auto first = writer.Append(MakeData("a", std::string(3000, 'x'), 1));
  ASSERT_TRUE(first.ok());
  // The next batch fills the first block, then fails in the second: every
  // node stores one chunk, then refuses.
  for (int node = 0; node < 3; node++) {
    dfs.data_node(node)->InjectIoErrors(1000, /*after=*/1);
  }
  EXPECT_FALSE(writer.Append(MakeData("b", std::string(3000, 'y'), 2)).ok());
  for (int node = 0; node < 3; node++) dfs.data_node(node)->InjectIoErrors(0);

  auto third = writer.Append(MakeData("c", "z", 3));
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->segment, first->segment);
  auto read = reader.Read(*third);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->row.primary_key, "c");

  auto scanner = reader.NewScanner();
  ASSERT_TRUE(scanner.ok());
  std::string keys;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    keys += (*scanner)->record().row.primary_key;
  }
  EXPECT_TRUE((*scanner)->status().ok()) << (*scanner)->status().ToString();
  EXPECT_EQ(keys, "ac");
}

TEST(LogReaderTest, ScannerIteratesAllSegmentsInOrder) {
  LogFixture f;
  std::string value(800, 'v');
  const int kRecords = 30;  // spans several 4 KB segments
  for (int i = 0; i < kRecords; i++) {
    ASSERT_TRUE(f.writer.Append(MakeData("key" + std::to_string(i), value, i))
                    .ok());
  }
  auto scanner = f.reader.NewScanner();
  ASSERT_TRUE(scanner.ok());
  int count = 0;
  uint64_t last_lsn = 0;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    EXPECT_GT((*scanner)->record().key.lsn, last_lsn);
    last_lsn = (*scanner)->record().key.lsn;
    count++;
  }
  EXPECT_TRUE((*scanner)->status().ok());
  EXPECT_EQ(count, kRecords);
}

TEST(LogReaderTest, ScannerStartsMidLog) {
  LogFixture f;
  std::vector<LogPtr> ptrs;
  for (int i = 0; i < 10; i++) {
    ptrs.push_back(*f.writer.Append(MakeData("k" + std::to_string(i), "v", i)));
  }
  auto scanner =
      f.reader.NewScanner(LogPosition{ptrs[6].segment, ptrs[6].offset});
  ASSERT_TRUE(scanner.ok());
  std::vector<std::string> keys;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    keys.push_back((*scanner)->record().row.primary_key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"k6", "k7", "k8", "k9"}));
}

TEST(LogReaderTest, ScannerPtrMatchesWriterPtr) {
  LogFixture f;
  std::vector<LogPtr> ptrs;
  for (int i = 0; i < 5; i++) {
    ptrs.push_back(*f.writer.Append(MakeData("k" + std::to_string(i), "v", i)));
  }
  auto scanner = f.reader.NewScanner();
  size_t i = 0;
  for (; (*scanner)->Valid(); (*scanner)->Next(), i++) {
    EXPECT_EQ((*scanner)->ptr(), ptrs[i]);
  }
  EXPECT_EQ(i, ptrs.size());
}

TEST(LogReaderTest, SegmentScannerStopsAtSegmentEnd) {
  LogFixture f;
  std::string value(800, 'v');
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(f.writer.Append(MakeData("k", value, i)).ok());
  }
  auto segments = f.reader.ListSegments();
  ASSERT_GT(segments->size(), 1u);
  auto scanner = f.reader.NewSegmentScanner((*segments)[0]);
  ASSERT_TRUE(scanner.ok());
  int count = 0;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    EXPECT_EQ((*scanner)->ptr().segment, (*segments)[0]);
    count++;
  }
  EXPECT_GT(count, 0);
  EXPECT_LT(count, 30);
}

TEST(LogReaderTest, ScanLimitExcludesHighLaneSegments) {
  LogFixture f;
  ASSERT_TRUE(f.writer.Append(MakeData("low", "v", 1)).ok());
  // Simulate a compaction output segment in the high lane.
  uint32_t high_segment = (1u << 24) | 1;
  auto wf = f.fs.NewWritableFile(SegmentFileName("/log", high_segment));
  std::string buf;
  MakeData("high", "v", 2).EncodeTo(&buf);
  ASSERT_TRUE((*wf)->Append(buf).ok());

  auto all = f.reader.NewScanner();
  int count_all = 0;
  for (; (*all)->Valid(); (*all)->Next()) count_all++;
  EXPECT_EQ(count_all, 2);

  auto limited = f.reader.NewScanner(LogPosition{0, 0}, 1u << 24);
  int count_limited = 0;
  for (; (*limited)->Valid(); (*limited)->Next()) {
    EXPECT_EQ((*limited)->record().row.primary_key, "low");
    count_limited++;
  }
  EXPECT_EQ(count_limited, 1);
}

TEST(LogReaderTest, TornTailStopsCleanly) {
  LogFixture f;
  ASSERT_TRUE(f.writer.Append(MakeData("good", "v", 1)).ok());
  // Append half a frame: a write torn by a crash.
  std::string frame;
  MakeData("torn", "v", 2).EncodeTo(&frame);
  frame.resize(frame.size() / 2);
  auto segments = f.reader.ListSegments();
  // MemFileSystem has no append-reopen; write a fresh segment holding only
  // the torn tail instead.
  uint32_t next_seg = (*segments)[0] + 1;
  auto torn = f.fs.NewWritableFile(SegmentFileName("/log", next_seg));
  ASSERT_TRUE((*torn)->Append(frame).ok());

  auto scanner = f.reader.NewScanner();
  int count = 0;
  for (; (*scanner)->Valid(); (*scanner)->Next()) count++;
  EXPECT_EQ(count, 1);
  EXPECT_TRUE((*scanner)->status().ok());  // clean end, not corruption
}

TEST(LogReaderTest, CorruptMidLogReportsCorruption) {
  MemFileSystem fs;
  // Hand-craft a segment: one good frame, one corrupted frame, one good.
  std::string buf;
  MakeData("a", "v", 1).EncodeTo(&buf);
  size_t corrupt_at = buf.size();
  MakeData("b", "v", 2).EncodeTo(&buf);
  buf[corrupt_at + 9] ^= 0xff;  // flip payload byte of frame 2
  MakeData("c", "v", 3).EncodeTo(&buf);
  auto wf = fs.NewWritableFile(SegmentFileName("/log", 1));
  ASSERT_TRUE((*wf)->Append(buf).ok());

  LogReader reader(&fs, "/log");
  auto scanner = reader.NewScanner();
  ASSERT_TRUE((*scanner)->Valid());
  EXPECT_EQ((*scanner)->record().row.primary_key, "a");
  (*scanner)->Next();
  EXPECT_FALSE((*scanner)->Valid());
  EXPECT_TRUE((*scanner)->status().IsCorruption());
}

}  // namespace
}  // namespace logbase::log

// Unit and property tests for the utility kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/coding.h"
#include "src/util/comparator.h"
#include "src/util/crc32c.h"
#include "src/util/histogram.h"
#include "src/util/io.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/util/skiplist.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace logbase {
namespace {

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[0], 'h');
  EXPECT_EQ(s.ToString(), "hello");
}

TEST(SliceTest, EmptyByDefault) {
  Slice s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("tablet/1").starts_with("tablet/"));
  EXPECT_FALSE(Slice("tab").starts_with("tablet/"));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("abcdef");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "cdef");
}

TEST(SliceTest, EqualityHandlesEmbeddedNul) {
  std::string a("a\0b", 3);
  std::string b("a\0c", 3);
  EXPECT_NE(Slice(a), Slice(b));
  EXPECT_EQ(Slice(a), Slice(std::string("a\0b", 3)));
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
}

Status FailsWhen(bool fail) {
  if (fail) return Status::IOError("boom");
  return Status::OK();
}

Status UsesReturnNotOk(bool fail) {
  LOGBASE_RETURN_NOT_OK(FailsWhen(fail));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(false).ok());
  EXPECT_TRUE(UsesReturnNotOk(true).IsIOError());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValueOrStatus) {
  auto ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(bad.ValueOr(42), 42);
}

Result<int> Doubles(int v) {
  LOGBASE_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturn) {
  ASSERT_TRUE(Doubles(4).ok());
  EXPECT_EQ(*Doubles(4), 8);
  EXPECT_TRUE(Doubles(0).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> moved = std::move(r).value();
  EXPECT_EQ(*moved, 9);
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice in(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32, ~0ull};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsTruncation) {
  std::string buf;
  PutVarint32(&buf, 1 << 20);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("hello"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  Slice in(buf), a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ull, 127ull, 128ull, 300ull, ~0ull}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

// Property: random values round-trip through a mixed encoding.
TEST(CodingTest, PropertyMixedRoundTrip) {
  Random rnd(301);
  for (int iter = 0; iter < 200; iter++) {
    uint64_t v64 = rnd.Next();
    uint32_t v32 = static_cast<uint32_t>(rnd.Next());
    std::string payload(rnd.Uniform(64), static_cast<char>(rnd.Uniform(256)));
    std::string buf;
    PutVarint64(&buf, v64);
    PutFixed32(&buf, v32);
    PutLengthPrefixedSlice(&buf, Slice(payload));
    Slice in(buf);
    uint64_t got64;
    uint32_t got32;
    Slice got_payload;
    ASSERT_TRUE(GetVarint64(&in, &got64));
    ASSERT_TRUE(GetFixed32(&in, &got32));
    ASSERT_TRUE(GetLengthPrefixedSlice(&in, &got_payload));
    EXPECT_EQ(got64, v64);
    EXPECT_EQ(got32, v32);
    EXPECT_EQ(got_payload.ToString(), payload);
    EXPECT_TRUE(in.empty());
  }
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C check value: "123456789" -> 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const char* data = "hello world";
  uint32_t whole = crc32c::Value(data, 11);
  uint32_t split = crc32c::Extend(crc32c::Value(data, 5), data + 5, 6);
  EXPECT_EQ(whole, split);
}

// Byte-at-a-time CRC32C straight from the reflected polynomial, the
// reference the table-driven Extend must agree with.
uint32_t BytewiseCrc32c(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; i++) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32cTest, MatchesBytewiseAtEveryLengthAndAlignment) {
  Random rnd(32);
  std::string buf(64 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Uniform(256));
  for (size_t align = 0; align < 8; align++) {
    for (size_t len = 0; len <= 64; len++) {
      const uint32_t init = static_cast<uint32_t>(rnd.Next());
      const char* p = buf.data() + align;
      EXPECT_EQ(crc32c::Extend(init, p, len), BytewiseCrc32c(init, p, len))
          << "align " << align << " len " << len;
      EXPECT_EQ(crc32c::Value(p, len), BytewiseCrc32c(0, p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, MatchesBytewiseOnLargeBuffers) {
  Random rnd(64);
  std::string buf((1 << 20) + 7, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Uniform(256));
  for (size_t align = 0; align < 8; align++) {
    const uint32_t init = static_cast<uint32_t>(rnd.Next());
    const char* p = buf.data() + align;
    const size_t n = (1 << 20) - align % 3;
    EXPECT_EQ(crc32c::Extend(init, p, n), BytewiseCrc32c(init, p, n))
        << "align " << align;
  }
  // Extending piecewise at odd split points equals one pass.
  const uint32_t whole = crc32c::Value(buf.data(), 1 << 20);
  uint32_t pieces = 0;
  size_t step = 1;
  for (size_t off = 0; off < (1u << 20); off += step, step = step * 3 + 1) {
    const size_t n = std::min<size_t>(step, (1u << 20) - off);
    pieces = crc32c::Extend(pieces, buf.data() + off, n);
  }
  EXPECT_EQ(pieces, whole);
}

TEST(Crc32cTest, MaskUnmaskInverse) {
  for (uint32_t crc : {0u, 1u, 0xffffffffu, 0x12345678u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(128, 'a');
  uint32_t clean = crc32c::Value(data.data(), data.size());
  data[17] ^= 0x4;
  EXPECT_NE(clean, crc32c::Value(data.data(), data.size()));
}

// ---------------------------------------------------------------------------
// Random / zipfian
// ---------------------------------------------------------------------------

TEST(RandomTest, UniformWithinBounds) {
  Random rnd(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rnd.Uniform(10), 10u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rnd(8);
  for (int i = 0; i < 1000; i++) {
    double d = rnd.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(99), b(99);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(ZipfianTest, SkewsTowardPopularItems) {
  Random rnd(13);
  ZipfianGenerator zipf(1000);
  std::map<uint64_t, int> counts;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; i++) {
    uint64_t v = zipf.Next(&rnd);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Item 0 must be far more popular than the tail median.
  EXPECT_GT(counts[0], kDraws / 100);
  int tail = 0;
  for (uint64_t i = 500; i < 510; i++) tail += counts[i];
  EXPECT_GT(counts[0], tail);
}

TEST(ScrambledZipfianTest, SpreadsHotItems) {
  Random rnd(17);
  ScrambledZipfianGenerator zipf(1000);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; i++) {
    counts[zipf.Next(&rnd)]++;
  }
  // The hottest item should NOT be item 0 with overwhelming likelihood
  // (hashing scatters popularity); just assert skew exists somewhere.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 200);  // ~1% of draws on the hottest key
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) h.Add(i);
  EXPECT_EQ(h.num(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.Average(), 50.5, 0.01);
  EXPECT_NEAR(h.Median(), 50, 5);
  EXPECT_NEAR(h.Percentile(95), 95, 8);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 50; i++) a.Add(10);
  for (int i = 0; i < 50; i++) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.num(), 100u);
  EXPECT_NEAR(a.Average(), 505, 1);
  EXPECT_DOUBLE_EQ(a.max(), 1000);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.num(), 0u);
  EXPECT_EQ(h.Average(), 0);
  EXPECT_EQ(h.Percentile(99), 0);
}

// ---------------------------------------------------------------------------
// SkipList
// ---------------------------------------------------------------------------

struct IntCmp {
  int operator()(int a, int b) const { return a < b ? -1 : (a > b ? 1 : 0); }
};

TEST(SkipListTest, InsertAndContains) {
  SkipList<int, IntCmp> list{IntCmp()};
  for (int i : {5, 1, 9, 3, 7}) list.Insert(i);
  for (int i : {1, 3, 5, 7, 9}) EXPECT_TRUE(list.Contains(i));
  for (int i : {0, 2, 4, 6, 8, 10}) EXPECT_FALSE(list.Contains(i));
}

TEST(SkipListTest, IteratorSortedOrder) {
  SkipList<int, IntCmp> list{IntCmp()};
  std::set<int> expected;
  Random rnd(5);
  for (int i = 0; i < 500; i++) {
    int v = static_cast<int>(rnd.Uniform(10000));
    if (expected.insert(v).second) list.Insert(v);
  }
  SkipList<int, IntCmp>::Iterator iter(&list);
  iter.SeekToFirst();
  for (int v : expected) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), v);
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, SeekFindsFirstGE) {
  SkipList<int, IntCmp> list{IntCmp()};
  for (int i = 0; i < 100; i += 10) list.Insert(i);
  SkipList<int, IntCmp>::Iterator iter(&list);
  iter.Seek(35);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40);
  iter.Seek(90);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 90);
  iter.Seek(91);
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, ConcurrentReadersDuringWrites) {
  SkipList<int, IntCmp> list{IntCmp()};
  std::atomic<bool> done{false};
  std::atomic<int> inserted{0};
  std::thread writer([&] {
    for (int i = 0; i < 20000; i++) {
      list.Insert(i);
      inserted.store(i + 1, std::memory_order_release);
    }
    done.store(true);
  });
  std::thread reader([&] {
    Random rnd(3);
    while (!done.load()) {
      int upper = inserted.load(std::memory_order_acquire);
      if (upper == 0) continue;
      int probe = static_cast<int>(rnd.Uniform(upper));
      EXPECT_TRUE(list.Contains(probe));
    }
  });
  writer.join();
  reader.join();
  EXPECT_TRUE(list.Contains(19999));
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

// ---------------------------------------------------------------------------
// MemFileSystem
// ---------------------------------------------------------------------------

TEST(MemFileSystemTest, WriteThenRead) {
  MemFileSystem fs;
  auto wf = fs.NewWritableFile("/a");
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append("hello ").ok());
  ASSERT_TRUE((*wf)->Append("world").ok());
  EXPECT_EQ((*wf)->Size(), 11u);
  auto rf = fs.NewRandomAccessFile("/a");
  ASSERT_TRUE(rf.ok());
  auto data = (*rf)->Read(6, 5);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "world");
}

TEST(MemFileSystemTest, ReadPastEofIsShort) {
  MemFileSystem fs;
  auto wf = fs.NewWritableFile("/a");
  ASSERT_TRUE((*wf)->Append("abc").ok());
  auto rf = fs.NewRandomAccessFile("/a");
  EXPECT_EQ(*(*rf)->Read(2, 100), "c");
  EXPECT_EQ(*(*rf)->Read(100, 10), "");
}

TEST(MemFileSystemTest, DeleteAndExists) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.NewWritableFile("/x").ok());
  EXPECT_TRUE(fs.Exists("/x"));
  EXPECT_TRUE(fs.DeleteFile("/x").ok());
  EXPECT_FALSE(fs.Exists("/x"));
  EXPECT_TRUE(fs.DeleteFile("/x").IsNotFound());
}

TEST(MemFileSystemTest, OpenReaderSurvivesDelete) {
  MemFileSystem fs;
  auto wf = fs.NewWritableFile("/x");
  ASSERT_TRUE((*wf)->Append("keep").ok());
  auto rf = fs.NewRandomAccessFile("/x");
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(fs.DeleteFile("/x").ok());
  EXPECT_EQ(*(*rf)->Read(0, 4), "keep");
}

TEST(MemFileSystemTest, RenameMovesContents) {
  MemFileSystem fs;
  auto wf = fs.NewWritableFile("/from");
  ASSERT_TRUE((*wf)->Append("data").ok());
  ASSERT_TRUE(fs.Rename("/from", "/to").ok());
  EXPECT_FALSE(fs.Exists("/from"));
  EXPECT_EQ(*fs.FileSize("/to"), 4u);
}

TEST(MemFileSystemTest, ListByPrefix) {
  MemFileSystem fs;
  ASSERT_TRUE(fs.NewWritableFile("/dir/a").ok());
  ASSERT_TRUE(fs.NewWritableFile("/dir/b").ok());
  ASSERT_TRUE(fs.NewWritableFile("/other/c").ok());
  auto names = fs.List("/dir/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
}

// Size() is a lock-free fast path read concurrently with Append (the log
// writer polls it while the flush thread appends). It must never tear or go
// backwards: each observed value is a size some completed Append produced.
TEST(MemFileSystemTest, ConcurrentSizeReadsDuringAppend) {
  MemFileSystem fs;
  auto wf = fs.NewWritableFile("/concurrent");
  ASSERT_TRUE(wf.ok());
  WritableFile* file = wf->get();

  constexpr int kAppends = 2000;
  constexpr size_t kChunk = 32;
  const std::string chunk(kChunk, 'x');

  std::thread writer([&] {
    for (int i = 0; i < kAppends; i++) {
      ASSERT_TRUE(file->Append(chunk).ok());
    }
  });
  uint64_t last = 0;
  bool monotonic = true;
  bool aligned = true;
  while (last < kAppends * kChunk) {
    uint64_t now = file->Size();
    if (now < last) monotonic = false;
    if (now % kChunk != 0) aligned = false;
    last = std::max(last, now);
  }
  writer.join();
  EXPECT_TRUE(monotonic) << "Size() went backwards";
  EXPECT_TRUE(aligned) << "Size() observed a torn mid-append value";
  EXPECT_EQ(file->Size(), kAppends * kChunk);
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

TEST(ComparatorTest, BytewiseSingleton) {
  const Comparator* cmp = BytewiseComparator();
  EXPECT_EQ(cmp, BytewiseComparator());
  EXPECT_LT(cmp->Compare("a", "b"), 0);
  EXPECT_EQ(cmp->Compare("a", "a"), 0);
}

}  // namespace
}  // namespace logbase

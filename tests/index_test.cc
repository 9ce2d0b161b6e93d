// Tests for the multiversion index: composite key codec, the B-link tree
// (unit + randomized differential + concurrency), the LSM-backed index, and
// the checkpoint's index section codec. The differential suites run against
// both index kinds through the common interface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "src/index/blink_tree.h"
#include "src/index/composite_key.h"
#include "src/index/index_checkpoint.h"
#include "src/index/lsm_index.h"
#include "src/util/coding.h"
#include "src/util/io.h"
#include "src/util/random.h"

namespace logbase::index {
namespace {

log::LogPtr Ptr(uint32_t segment, uint64_t offset) {
  return log::LogPtr{0, segment, offset, 100};
}

// ---------------------------------------------------------------------------
// Composite key codec
// ---------------------------------------------------------------------------

TEST(CompositeKeyTest, RoundTrip) {
  std::string encoded = EncodeCompositeKey("user5", 42);
  std::string key;
  uint64_t ts;
  ASSERT_TRUE(DecodeCompositeKey(Slice(encoded), &key, &ts));
  EXPECT_EQ(key, "user5");
  EXPECT_EQ(ts, 42u);
}

TEST(CompositeKeyTest, RoundTripWithEmbeddedZeros) {
  std::string weird("a\0b\0\0c", 6);
  std::string encoded = EncodeCompositeKey(Slice(weird), 7);
  std::string key;
  uint64_t ts;
  ASSERT_TRUE(DecodeCompositeKey(Slice(encoded), &key, &ts));
  EXPECT_EQ(key, weird);
  EXPECT_EQ(ts, 7u);
}

TEST(CompositeKeyTest, OrderKeyAscThenTimestampDesc) {
  // Same key: larger timestamp encodes smaller.
  EXPECT_LT(EncodeCompositeKey("k", 10), EncodeCompositeKey("k", 5));
  // Key dominates.
  EXPECT_LT(EncodeCompositeKey("a", 1), EncodeCompositeKey("b", 100));
  // Prefix keys order correctly despite the terminator.
  EXPECT_LT(EncodeCompositeKey("ab", 1), EncodeCompositeKey("ab0", 1));
}

TEST(CompositeKeyTest, PropertyOrderPreserved) {
  Random rnd(55);
  for (int i = 0; i < 300; i++) {
    std::string k1(rnd.Uniform(8) + 1, static_cast<char>('a' + rnd.Uniform(4)));
    std::string k2(rnd.Uniform(8) + 1, static_cast<char>('a' + rnd.Uniform(4)));
    uint64_t t1 = rnd.Uniform(1000), t2 = rnd.Uniform(1000);
    int want = k1 != k2 ? (k1 < k2 ? -1 : 1) : (t1 > t2 ? -1 : (t1 < t2 ? 1 : 0));
    int got = Slice(EncodeCompositeKey(k1, t1))
                  .compare(Slice(EncodeCompositeKey(k2, t2)));
    got = got < 0 ? -1 : (got > 0 ? 1 : 0);
    EXPECT_EQ(got, want) << k1 << "@" << t1 << " vs " << k2 << "@" << t2;
  }
}

// ---------------------------------------------------------------------------
// Index interface conformance: parameterized over both implementations.
// ---------------------------------------------------------------------------

enum class Impl { kBlink, kLsm };

class IndexFixture {
 public:
  explicit IndexFixture(Impl impl) {
    if (impl == Impl::kBlink) {
      index_ = std::make_unique<BlinkTree>();
    } else {
      lsm::LsmOptions options;
      options.memtable_bytes = 4096;
      options.table.block_size = 512;
      auto opened = LsmIndex::Open(options, &fs_, "/idx");
      EXPECT_TRUE(opened.ok());
      index_ = std::move(*opened);
    }
  }

  MultiVersionIndex* index() { return index_.get(); }

 private:
  MemFileSystem fs_;
  std::unique_ptr<MultiVersionIndex> index_;
};

class MultiVersionIndexTest : public ::testing::TestWithParam<Impl> {};

INSTANTIATE_TEST_SUITE_P(Impls, MultiVersionIndexTest,
                         ::testing::Values(Impl::kBlink, Impl::kLsm),
                         [](const auto& info) {
                           return info.param == Impl::kBlink ? "Blink" : "Lsm";
                         });

TEST_P(MultiVersionIndexTest, InsertAndGetLatest) {
  IndexFixture f(GetParam());
  ASSERT_TRUE(f.index()->Insert("k", 1, Ptr(1, 10)).ok());
  ASSERT_TRUE(f.index()->Insert("k", 5, Ptr(1, 50)).ok());
  ASSERT_TRUE(f.index()->Insert("k", 3, Ptr(1, 30)).ok());
  auto latest = f.index()->GetAsOf("k", kLatest);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->timestamp, 5u);
  EXPECT_EQ(latest->ptr.offset, 50u);
}

TEST_P(MultiVersionIndexTest, GetAsOfPicksNewestVisible) {
  IndexFixture f(GetParam());
  for (uint64_t ts : {10u, 20u, 30u}) {
    ASSERT_TRUE(f.index()->Insert("k", ts, Ptr(1, ts)).ok());
  }
  EXPECT_EQ(f.index()->GetAsOf("k", 25)->timestamp, 20u);
  EXPECT_EQ(f.index()->GetAsOf("k", 30)->timestamp, 30u);
  EXPECT_EQ(f.index()->GetAsOf("k", 1000)->timestamp, 30u);
  EXPECT_TRUE(f.index()->GetAsOf("k", 5).status().IsNotFound());
}

TEST_P(MultiVersionIndexTest, MissingKeyNotFound) {
  IndexFixture f(GetParam());
  ASSERT_TRUE(f.index()->Insert("exists", 1, Ptr(1, 1)).ok());
  EXPECT_TRUE(f.index()->GetAsOf("missing", kLatest).status().IsNotFound());
  EXPECT_TRUE(f.index()->GetAsOf("exist", kLatest).status().IsNotFound());
  EXPECT_TRUE(f.index()->GetAsOf("existsX", kLatest).status().IsNotFound());
}

TEST_P(MultiVersionIndexTest, GetAllVersionsNewestFirst) {
  IndexFixture f(GetParam());
  for (uint64_t ts : {3u, 1u, 2u}) {
    ASSERT_TRUE(f.index()->Insert("k", ts, Ptr(1, ts)).ok());
  }
  auto versions = f.index()->GetAllVersions("k");
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].timestamp, 3u);
  EXPECT_EQ(versions[1].timestamp, 2u);
  EXPECT_EQ(versions[2].timestamp, 1u);
}

TEST_P(MultiVersionIndexTest, RemoveAllVersions) {
  IndexFixture f(GetParam());
  for (uint64_t ts : {1u, 2u, 3u}) {
    ASSERT_TRUE(f.index()->Insert("doomed", ts, Ptr(1, ts)).ok());
    ASSERT_TRUE(f.index()->Insert("keeper", ts, Ptr(2, ts)).ok());
  }
  ASSERT_TRUE(f.index()->RemoveAllVersions("doomed").ok());
  EXPECT_TRUE(f.index()->GetAsOf("doomed", kLatest).status().IsNotFound());
  EXPECT_TRUE(f.index()->GetAllVersions("doomed").empty());
  EXPECT_TRUE(f.index()->GetAsOf("keeper", kLatest).ok());
  ASSERT_TRUE(f.index()->RemoveAllVersions("keeper").ok());
  EXPECT_EQ(f.index()->num_entries(), 0u);
}

TEST_P(MultiVersionIndexTest, UpsertReplacesPointer) {
  IndexFixture f(GetParam());
  ASSERT_TRUE(f.index()->Insert("k", 7, Ptr(1, 100)).ok());
  ASSERT_TRUE(f.index()->Insert("k", 7, Ptr(2, 200)).ok());
  auto entry = f.index()->GetAsOf("k", kLatest);
  EXPECT_EQ(entry->ptr.segment, 2u);
  EXPECT_EQ(f.index()->GetAllVersions("k").size(), 1u);
}

TEST_P(MultiVersionIndexTest, UpdateIfPresentSemantics) {
  IndexFixture f(GetParam());
  ASSERT_TRUE(f.index()->Insert("k", 7, Ptr(1, 100)).ok());
  ASSERT_TRUE(f.index()->UpdateIfPresent("k", 7, Ptr(9, 900)).ok());
  EXPECT_EQ(f.index()->GetAsOf("k", kLatest)->ptr.segment, 9u);
  // Absent version: must NOT create an entry.
  EXPECT_TRUE(f.index()->UpdateIfPresent("k", 8, Ptr(9, 901)).IsNotFound());
  EXPECT_TRUE(
      f.index()->UpdateIfPresent("other", 7, Ptr(9, 902)).IsNotFound());
  EXPECT_EQ(f.index()->GetAllVersions("k").size(), 1u);
  EXPECT_TRUE(f.index()->GetAsOf("other", kLatest).status().IsNotFound());
}

TEST_P(MultiVersionIndexTest, ScanRangeLatestPerKey) {
  IndexFixture f(GetParam());
  for (int i = 0; i < 20; i++) {
    std::string key = "key" + std::string(1, 'a' + i);
    ASSERT_TRUE(f.index()->Insert(key, 1, Ptr(1, i)).ok());
    ASSERT_TRUE(f.index()->Insert(key, 2, Ptr(2, i)).ok());
  }
  auto rows = f.index()->ScanRange("keyc", "keyh", ~0ull);
  ASSERT_EQ(rows.size(), 5u);  // c, d, e, f, g
  EXPECT_EQ(rows[0].key, "keyc");
  EXPECT_EQ(rows[0].timestamp, 2u);
  EXPECT_EQ(rows[4].key, "keyg");
}

TEST_P(MultiVersionIndexTest, ScanRangeAsOfFiltersVersions) {
  IndexFixture f(GetParam());
  ASSERT_TRUE(f.index()->Insert("a", 10, Ptr(1, 1)).ok());
  ASSERT_TRUE(f.index()->Insert("b", 20, Ptr(1, 2)).ok());
  ASSERT_TRUE(f.index()->Insert("b", 5, Ptr(1, 3)).ok());
  auto rows = f.index()->ScanRange("", "", 15);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "a");
  EXPECT_EQ(rows[0].timestamp, 10u);
  EXPECT_EQ(rows[1].key, "b");
  EXPECT_EQ(rows[1].timestamp, 5u);  // 20 not visible at 15
}

TEST_P(MultiVersionIndexTest, VisitAllOrdered) {
  IndexFixture f(GetParam());
  Random rnd(61);
  for (int i = 0; i < 300; i++) {
    std::string key = "k" + std::to_string(rnd.Uniform(50));
    ASSERT_TRUE(f.index()->Insert(key, rnd.Uniform(100) + 1, Ptr(1, i)).ok());
  }
  std::string last_key;
  uint64_t last_ts = 0;
  bool first = true;
  size_t visited = 0;
  f.index()->VisitAll([&](const IndexEntry& entry) {
    if (!first) {
      if (entry.key == last_key) {
        EXPECT_LT(entry.timestamp, last_ts);  // descending within a key
      } else {
        EXPECT_GT(entry.key, last_key);
      }
    }
    first = false;
    last_key = entry.key;
    last_ts = entry.timestamp;
    visited++;
  });
  EXPECT_EQ(visited, f.index()->num_entries());
}

TEST_P(MultiVersionIndexTest, LargeVolumeForcesStructureGrowth) {
  IndexFixture f(GetParam());
  const int kKeys = 3000;
  for (int i = 0; i < kKeys; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(f.index()->Insert(key, 1, Ptr(1, i)).ok());
  }
  EXPECT_EQ(f.index()->num_entries(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; i += 97) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    auto entry = f.index()->GetAsOf(key, kLatest);
    ASSERT_TRUE(entry.ok()) << key;
    EXPECT_EQ(entry->ptr.offset, static_cast<uint64_t>(i));
  }
}

// Differential property test vs a std::map<(key,ts)> oracle.
class IndexDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Impl, uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, IndexDifferentialTest,
    ::testing::Combine(::testing::Values(Impl::kBlink, Impl::kLsm),
                       ::testing::Values(1ull, 77ull, 4242ull)));

TEST_P(IndexDifferentialTest, MatchesOracle) {
  IndexFixture f(std::get<0>(GetParam()));
  Random rnd(std::get<1>(GetParam()));
  // Oracle: (key, ts) -> offset, with key-major / ts-descending queries.
  std::map<std::string, std::map<uint64_t, uint64_t>> oracle;
  for (int step = 0; step < 4000; step++) {
    std::string key = "u" + std::to_string(rnd.Uniform(150));
    uint64_t action = rnd.Uniform(10);
    if (action < 6) {
      uint64_t ts = rnd.Uniform(500) + 1;
      uint64_t offset = static_cast<uint64_t>(step);
      ASSERT_TRUE(f.index()->Insert(key, ts, Ptr(1, offset)).ok());
      oracle[key][ts] = offset;
    } else if (action < 7) {
      ASSERT_TRUE(f.index()->RemoveAllVersions(key).ok());
      oracle.erase(key);
    } else {
      uint64_t as_of = rnd.Uniform(600);
      auto got = f.index()->GetAsOf(key, as_of);
      auto key_it = oracle.find(key);
      const std::pair<const uint64_t, uint64_t>* want = nullptr;
      if (key_it != oracle.end()) {
        for (auto it = key_it->second.rbegin(); it != key_it->second.rend();
             ++it) {
          if (it->first <= as_of) {
            want = &*it;
            break;
          }
        }
      }
      if (want == nullptr) {
        EXPECT_TRUE(got.status().IsNotFound()) << key << "@" << as_of;
      } else {
        ASSERT_TRUE(got.ok()) << key << "@" << as_of;
        EXPECT_EQ(got->timestamp, want->first);
        EXPECT_EQ(got->ptr.offset, want->second);
      }
    }
  }
  // Final: full scan matches oracle contents.
  size_t oracle_entries = 0;
  for (const auto& [k, versions] : oracle) oracle_entries += versions.size();
  EXPECT_EQ(f.index()->num_entries(), oracle_entries);
}

// ---------------------------------------------------------------------------
// B-link-tree-specific: structure growth and concurrency.
// ---------------------------------------------------------------------------

TEST(BlinkTreeTest, HeightGrowsWithVolume) {
  BlinkTree tree;
  EXPECT_EQ(tree.Height(), 1);
  for (int i = 0; i < 10000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    ASSERT_TRUE(tree.Insert(key, 1, Ptr(1, i)).ok());
  }
  EXPECT_GE(tree.Height(), 3);
  EXPECT_EQ(tree.num_entries(), 10000u);
}

TEST(BlinkTreeTest, ConcurrentInsertsAndReads) {
  BlinkTree tree;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&tree, t] {
      for (int i = 0; i < kPerThread; i++) {
        char key[24];
        std::snprintf(key, sizeof(key), "t%d-k%06d", t, i);
        ASSERT_TRUE(tree.Insert(key, 1, Ptr(t, i)).ok());
        if (i % 7 == 0) {
          auto entry = tree.GetAsOf(key, kLatest);
          ASSERT_TRUE(entry.ok());
          EXPECT_EQ(entry->ptr.offset, static_cast<uint64_t>(i));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tree.num_entries(),
            static_cast<size_t>(kThreads * kPerThread));
  // Every key present afterwards.
  Random rnd(5);
  for (int probe = 0; probe < 1000; probe++) {
    char key[24];
    std::snprintf(key, sizeof(key), "t%d-k%06d",
                  static_cast<int>(rnd.Uniform(kThreads)),
                  static_cast<int>(rnd.Uniform(kPerThread)));
    EXPECT_TRUE(tree.GetAsOf(key, kLatest).ok()) << key;
  }
}

TEST(BlinkTreeTest, ConcurrentReadersDuringSplits) {
  BlinkTree tree;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 30000; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "w%07d", i);
      (void)tree.Insert(key, 1, Ptr(1, i));  // failure surfaces via scanner checks
    }
    done.store(true);
  });
  std::thread scanner([&] {
    while (!done.load()) {
      auto rows = tree.ScanRange("w0001000", "w0002000", ~0ull);
      // Whatever is seen must be sorted and in range.
      for (size_t i = 1; i < rows.size(); i++) {
        EXPECT_LT(rows[i - 1].key, rows[i].key);
      }
      if (!rows.empty()) {
        EXPECT_GE(rows.front().key, std::string("w0001000"));
        EXPECT_LT(rows.back().key, std::string("w0002000"));
      }
    }
  });
  writer.join();
  scanner.join();
  EXPECT_EQ(tree.ScanRange("w0001000", "w0002000", ~0ull).size(), 1000u);
}

// Every read walk races leaf splits: the writer inserts each key's versions
// in a scattered key order, so splits land all over the tree and a key's
// run of versions straddles leaf boundaries, and publishes how many keys it
// has finished. Each reader call must return entries in order, without
// duplicates, and holding every version finished before the call began.
TEST(BlinkTreeTest, EveryWalkDuringSplits) {
  constexpr int kKeys = 1500;
  constexpr uint64_t kVersions = 7;  // not a divisor of a half-full leaf
  constexpr int kStride = 7919;      // prime, so i -> i * kStride % kKeys
                                     // visits every key once
  auto key_at = [](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "v%05d", i);
    return std::string(key);
  };
  // finished_by[i]: how many keys are done once key i is done.
  std::vector<int> finished_by(kKeys);
  for (int step = 0; step < kKeys; step++) {
    finished_by[static_cast<size_t>(step) * kStride % kKeys] = step + 1;
  }
  auto finished = [&](int i, int done) { return finished_by[i] <= done; };
  auto ptr_of = [](uint64_t ts, int i) {
    return Ptr(static_cast<uint32_t>(ts), static_cast<uint64_t>(i));
  };

  BlinkTree tree;
  std::atomic<int> done{0};
  std::thread writer([&] {
    for (int step = 0; step < kKeys; step++) {
      int i = static_cast<int>(static_cast<size_t>(step) * kStride % kKeys);
      for (uint64_t ts = 1; ts <= kVersions; ts++) {
        EXPECT_TRUE(tree.Insert(key_at(i), ts, ptr_of(ts, i)).ok());
      }
      done.store(step + 1, std::memory_order_release);
    }
  });

  Random rnd(2024);
  int rounds = 0;
  while (true) {
    const int now_done = done.load(std::memory_order_acquire);
    const bool last_round = now_done == kKeys;
    const int i = static_cast<int>(rnd.Uniform(kKeys));
    const std::string key = key_at(i);
    const uint64_t as_of = rnd.Uniform(kVersions) + 1;

    // Point walks over one key.
    auto got = tree.GetAsOf(key, as_of);
    auto versions = tree.GetAllVersions(key);
    for (size_t v = 1; v < versions.size(); v++) {
      EXPECT_EQ(versions[v].key, key);
      EXPECT_LT(versions[v].timestamp, versions[v - 1].timestamp) << key;
    }
    if (finished(i, now_done)) {
      EXPECT_TRUE(got.ok()) << key << "@" << as_of;
      if (got.ok()) {
        EXPECT_EQ(got->timestamp, as_of);
        EXPECT_EQ(got->ptr, ptr_of(as_of, i));
      }
      EXPECT_EQ(versions.size(), kVersions) << key;
      // Rewrites the pointer it already holds, so the checks above stay
      // exact for later rounds.
      EXPECT_TRUE(tree.UpdateIfPresent(key, as_of, ptr_of(as_of, i)).ok());
    }
    EXPECT_TRUE(tree.UpdateIfPresent(key, kVersions + 1, ptr_of(0, i))
                    .IsNotFound());

    // A range walk from the key: one visible version per key, in order.
    const int span = 1 + static_cast<int>(rnd.Uniform(200));
    const int end_i = std::min(kKeys, i + span);
    const std::string end = key_at(end_i);
    auto rows = tree.ScanRange(key, end_i == kKeys ? Slice() : Slice(end),
                               as_of);
    std::map<std::string, uint64_t> seen;  // key -> visible timestamp
    for (size_t r = 0; r < rows.size(); r++) {
      if (r > 0) {
        EXPECT_LT(rows[r - 1].key, rows[r].key);
      }
      EXPECT_GE(rows[r].key, key);
      // A key still being written may not have reached `as_of` yet.
      EXPECT_LE(rows[r].timestamp, as_of) << rows[r].key;
      seen[rows[r].key] = rows[r].timestamp;
    }
    for (int k = i; k < end_i; k++) {
      if (!finished(k, now_done)) continue;
      auto row = seen.find(key_at(k));
      EXPECT_TRUE(row != seen.end()) << k;
      if (row != seen.end()) {
        EXPECT_EQ(row->second, as_of) << row->first;
      }
    }

    // The full walk, every few rounds and once the writer is done.
    if (rounds % 16 == 0 || last_round) {
      std::map<std::string, uint64_t> count;
      std::string last_key;
      uint64_t last_ts = 0;
      bool first = true;
      tree.VisitAll([&](const IndexEntry& entry) {
        if (!first) {
          bool after = entry.key > last_key ||
                       (entry.key == last_key && entry.timestamp < last_ts);
          EXPECT_TRUE(after) << entry.key << "@" << entry.timestamp;
        }
        first = false;
        last_key = entry.key;
        last_ts = entry.timestamp;
        count[entry.key]++;
      });
      for (int k = 0; k < kKeys; k++) {
        if (finished(k, now_done)) {
          EXPECT_EQ(count[key_at(k)], kVersions) << k;
        }
      }
    }
    rounds++;
    if (last_round) break;
  }
  writer.join();
  EXPECT_EQ(tree.num_entries(), kKeys * kVersions);
}

// ---------------------------------------------------------------------------
// Index checkpoint sections (the server-level file is tested in
// tablet_test.cc)
// ---------------------------------------------------------------------------

TEST(IndexCheckpointTest, PersistAndReload) {
  BlinkTree original;
  Random rnd(88);
  for (int i = 0; i < 2000; i++) {
    std::string key = "ck" + std::to_string(rnd.Uniform(400));
    ASSERT_TRUE(original.Insert(key, rnd.Uniform(50) + 1, Ptr(3, i)).ok());
  }
  std::string section;
  EncodeIndexSection(original, &section);

  BlinkTree reloaded;
  Slice in(section);
  ASSERT_TRUE(DecodeIndexSection(&in, &reloaded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(reloaded.num_entries(), original.num_entries());
  original.VisitAll([&reloaded](const IndexEntry& entry) {
    auto got = reloaded.GetAsOf(Slice(entry.key), entry.timestamp);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->timestamp, entry.timestamp);
    EXPECT_EQ(got->ptr, entry.ptr);
  });
}

TEST(IndexCheckpointTest, CrossImplementationReload) {
  // A section encoded from a B-link tree loads into an LSM index.
  MemFileSystem fs;
  BlinkTree original;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(original.Insert("k" + std::to_string(i), 5, Ptr(1, i)).ok());
  }
  std::string section;
  EncodeIndexSection(original, &section);
  lsm::LsmOptions options;
  auto lsm_index = LsmIndex::Open(options, &fs, "/lsmidx");
  ASSERT_TRUE(lsm_index.ok());
  Slice in(section);
  ASSERT_TRUE(DecodeIndexSection(&in, lsm_index->get()).ok());
  EXPECT_EQ((*lsm_index)->GetAsOf("k42", kLatest)->ptr.offset, 42u);
}

/// Every entry of `index` in VisitAll order.
std::vector<IndexEntry> Entries(const MultiVersionIndex& index) {
  std::vector<IndexEntry> entries;
  index.VisitAll(
      [&entries](const IndexEntry& entry) { entries.push_back(entry); });
  return entries;
}

void ExpectSameEntries(const std::vector<IndexEntry>& got,
                       const std::vector<IndexEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << i;
    EXPECT_EQ(got[i].ptr, want[i].ptr) << i;
  }
}

TEST(IndexCheckpointTest, SeededRandomRoundTripEqualsVisitAll) {
  BlinkTree original;
  Random rnd(20260);
  // Keys sharing prefixes of every length with their neighbours, the empty
  // key among them.
  const std::vector<std::string> stems = {"", "a", "ab", "abc", "abcd",
                                          "user", "user0001", "user00010",
                                          "zz"};
  for (int i = 0; i < 3000; i++) {
    std::string key = stems[rnd.Uniform(stems.size())];
    const uint64_t tail = rnd.Uniform(4);
    for (uint64_t c = 0; c < tail; c++) {
      key.push_back(static_cast<char>(rnd.Uniform(256)));
    }
    // Timestamps across the whole range, up to just below kLatest.
    uint64_t ts = rnd.Uniform(3) == 0 ? kLatest - 1 - rnd.Uniform(1000)
                                      : rnd.Next() >> rnd.Uniform(64);
    log::LogPtr ptr{static_cast<uint32_t>(rnd.Uniform(4)) * 0x40000000u,
                    static_cast<uint32_t>(rnd.Next()),
                    rnd.Uniform(2) == 0 ? ~0ull - rnd.Uniform(1 << 20)
                                        : rnd.Uniform(1 << 26),
                    static_cast<uint32_t>(rnd.Next())};
    ASSERT_TRUE(original.Insert(key, ts, ptr).ok());
  }
  // One key with many versions, the oldest at timestamp 0.
  for (uint64_t v = 0; v < 500; v++) {
    ASSERT_TRUE(original.Insert("hot", v * 7919, Ptr(9, v)).ok());
  }
  std::string section;
  EncodeIndexSection(original, &section);

  BlinkTree reloaded;
  Slice in(section);
  ASSERT_TRUE(DecodeIndexSection(&in, &reloaded).ok());
  EXPECT_TRUE(in.empty());
  ExpectSameEntries(Entries(reloaded), Entries(original));
}

TEST(IndexCheckpointTest, TypicalEntryTakesAboutTwelveBytes) {
  // Neighbouring keys share their prefix, a key's later versions store a
  // one-byte gap, and each LogPtr field is as short as its value.
  BlinkTree index;
  uint64_t offset = 0;
  for (int k = 0; k < 1000; k++) {
    char key[16];
    std::snprintf(key, sizeof(key), "user%07d", k);
    for (int v = 0; v < 4; v++) {
      const uint64_t ts = (uint64_t{1} << 40) + k * 64 + v;
      ASSERT_TRUE(index.Insert(key, ts, log::LogPtr{2, 3, offset, 1100}).ok());
      offset += 1100;
    }
  }
  std::string section;
  EncodeIndexSection(index, &section);
  EXPECT_LE(section.size(), 13 * index.num_entries());
}

TEST(IndexCheckpointTest, EveryTruncationIsCorruptionAndLoadsNothing) {
  BlinkTree original;
  for (int i = 0; i < 12; i++) {
    for (uint64_t v = 1; v <= 3; v++) {
      ASSERT_TRUE(original
                      .Insert("key" + std::to_string(i * 37), v * 1000 + i,
                              Ptr(i, v << 20))
                      .ok());
    }
  }
  std::string section;
  EncodeIndexSection(original, &section);
  for (size_t n = 0; n < section.size(); n++) {
    Slice checked(section.data(), n);
    EXPECT_TRUE(DecodeIndexSection(&checked, nullptr).IsCorruption()) << n;
    BlinkTree reloaded;
    Slice in(section.data(), n);
    EXPECT_TRUE(DecodeIndexSection(&in, &reloaded).IsCorruption()) << n;
    EXPECT_EQ(reloaded.num_entries(), 0u) << n;
  }
}

/// One hand-built section entry.
void PutEntry(std::string* out, uint32_t shared, const std::string& rest,
              uint64_t timestamp) {
  PutVarint32(out, shared);
  PutVarint32(out, static_cast<uint32_t>(rest.size()));
  out->append(rest);
  PutVarint64(out, timestamp);
  for (int field = 0; field < 4; field++) PutVarint32(out, 1);
}

/// Decodes `section` into a fresh tree; returns the status and checks that
/// the tree was left empty.
Status DecodeIntoEmptyTree(const std::string& section) {
  BlinkTree reloaded;
  Slice in(section);
  Status s = DecodeIndexSection(&in, &reloaded);
  EXPECT_EQ(reloaded.num_entries(), 0u);
  return s;
}

TEST(IndexCheckpointTest, SharedPrefixLongerThanPreviousKeyIsCorruption) {
  std::string valid, bad;
  PutFixed64(&valid, 2);
  PutEntry(&valid, 0, "ab", 5);
  bad = valid;
  PutEntry(&valid, 2, "c", 9);  // "abc"
  PutEntry(&bad, 3, "c", 9);    // shares 3 bytes of a 2-byte key
  BlinkTree reloaded;
  Slice in(valid);
  ASSERT_TRUE(DecodeIndexSection(&in, &reloaded).ok());
  EXPECT_TRUE(reloaded.GetAsOf("abc", kLatest).ok());
  EXPECT_TRUE(DecodeIntoEmptyTree(bad).IsCorruption());
}

TEST(IndexCheckpointTest, TimestampGapLargerThanPreviousIsCorruption) {
  std::string valid, bad;
  PutFixed64(&valid, 2);
  PutEntry(&valid, 0, "k", 5);
  bad = valid;
  PutEntry(&valid, 1, "", 5);  // the same key's version at timestamp 0
  PutEntry(&bad, 1, "", 6);    // would fall below timestamp 0
  BlinkTree reloaded;
  Slice in(valid);
  ASSERT_TRUE(DecodeIndexSection(&in, &reloaded).ok());
  EXPECT_EQ(reloaded.GetAllVersions("k").size(), 2u);
  EXPECT_TRUE(DecodeIntoEmptyTree(bad).IsCorruption());
}

}  // namespace
}  // namespace logbase::index

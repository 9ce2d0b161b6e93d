// Concurrency stress tests, written for the ThreadSanitizer preset
// (`cmake --preset tsan`). They hammer the components with real cross-thread
// contention — the coordination lock table, one DFS block written and read
// at once, random DFS readers on every node beside an appending writer, a
// tablet server serving writes, reads and checkpoints concurrently, and load
// reports drained while ops run — so TSan sees the interesting interleavings
// and the ranked lock-order checker (on by default) observes every nested
// acquisition the system performs under load. They also run under the
// default preset as plain correctness tests.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/coord/coordination_service.h"
#include "src/coord/lock_manager.h"
#include "src/dfs/dfs.h"
#include "src/sim/sim_context.h"
#include "src/tablet/tablet_server.h"
#include "src/txn/lock_table.h"
#include "src/util/ordered_mutex.h"
#include "src/util/random.h"

namespace logbase {
namespace {

TEST(StressTest, LockTableContendedAcquireRelease) {
  coord::CoordinationService coord;
  coord::LockManager locks(&coord);
  // 8 transactions repeatedly lock overlapping key sets through the lock
  // table. Each set is taken all-or-nothing, so acquisition must stay
  // deadlock-free; while a set is held no other transaction may hold any of
  // its keys, and TSan must see no races in the znode tree underneath.
  constexpr int kKeys = 6;
  std::array<std::atomic<int>, kKeys> holders{};
  std::atomic<int> max_holders{0};
  std::atomic<int> acquired{0};
  std::vector<std::thread> txns;
  for (int t = 0; t < 8; t++) {
    txns.emplace_back([&, t] {
      coord::SessionId session = coord.CreateSession(t % 4);
      Random rnd(1000 + t);
      for (int round = 0; round < 40; round++) {
        std::vector<txn::TxnCell> cells;
        std::set<int> keys;
        for (int k = 0; k < 3; k++) {
          int key = static_cast<int>(rnd.Uniform(kKeys));
          keys.insert(key);
          cells.push_back(
              txn::TxnCell{"tablet", "key" + std::to_string(key)});
        }
        txn::OrderedLockSet set(&locks, session, "txn" + std::to_string(t),
                                t % 4);
        if (!set.AcquireAll(cells).ok()) continue;
        acquired++;
        for (int key : keys) {
          int now_holding = ++holders[key];
          int seen = max_holders.load();
          while (now_holding > seen &&
                 !max_holders.compare_exchange_weak(seen, now_holding)) {
          }
        }
        std::this_thread::yield();
        for (int key : keys) holders[key]--;
        // ~OrderedLockSet releases everything.
      }
      coord.CloseSession(session);
    });
  }
  for (auto& t : txns) t.join();
  EXPECT_GT(acquired.load(), 0);
  EXPECT_EQ(max_holders.load(), 1);
}

// One writer appends to a single DFS block while readers on every node read
// it back: the block's one shared byte store grows under the readers, who
// must only ever see a byte-exact prefix of what was written.
TEST(StressTest, DfsOneWriterManyReadersOnOneBlock) {
  dfs::DfsOptions options;
  options.num_nodes = 3;
  options.block_size = 1 << 20;
  dfs::Dfs dfs(options);
  auto wf = dfs.Create("/shared", 0);
  ASSERT_TRUE(wf.ok());
  auto byte_at = [](uint64_t i) { return static_cast<char>(i * 7 % 251); };
  constexpr uint64_t kAppends = 200;
  constexpr uint64_t kAppendBytes = 700;  // spans many store chunks
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      auto rf = dfs.Open("/shared", r);
      if (!rf.ok()) {
        bad++;
        return;
      }
      for (;;) {
        // One more read after the writer finished, so every reader reads.
        const bool last = done.load();
        const uint64_t size = (*rf)->Size();
        const uint64_t offset = size * r / 3;
        auto data = (*rf)->Read(offset, size - offset);
        if (!data.ok() || data->size() != size - offset) {
          bad++;
        } else {
          for (uint64_t i = 0; i < data->size(); i++) {
            if ((*data)[i] != byte_at(offset + i)) {
              bad++;
              break;
            }
          }
          reads++;
        }
        if (last) break;
        std::this_thread::yield();
      }
    });
  }
  std::string chunk;
  for (uint64_t a = 0; a < kAppends; a++) {
    chunk.clear();
    for (uint64_t i = 0; i < kAppendBytes; i++) {
      chunk.push_back(byte_at(a * kAppendBytes + i));
    }
    if (!(*wf)->Append(chunk).ok() || !(*wf)->Sync().ok()) bad++;
  }
  done = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(reads.load(), 3);
  auto rf = dfs.Open("/shared", 1);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ((*rf)->Size(), kAppends * kAppendBytes);
  EXPECT_EQ(HeldRankCount(), 0u);
}

// Readers on every node, two threads a node sharing one open file, read
// random ranges of a file while a writer appends to it. The threads of a
// node share its view of its outstanding reads (and their file's cached
// locations), and every read must still return the exact bytes written.
TEST(StressTest, DfsRandomReadersOnEveryNodeWhileWriterAppends) {
  dfs::DfsOptions options;
  options.num_nodes = 4;
  options.block_size = 64 << 10;  // the file spans several blocks
  dfs::Dfs dfs(options);
  auto wf = dfs.Create("/spread", 0);
  ASSERT_TRUE(wf.ok());
  auto byte_at = [](uint64_t i) { return static_cast<char>(i * 13 % 251); };
  constexpr uint64_t kAppends = 200;
  constexpr uint64_t kAppendBytes = 700;
  constexpr int kThreadsPerNode = 2;
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> reads{0};
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  for (int node = 0; node < options.num_nodes; node++) {
    auto rf = dfs.Open("/spread", node);
    ASSERT_TRUE(rf.ok());
    files.push_back(std::move(*rf));
  }
  std::vector<std::thread> readers;
  for (int node = 0; node < options.num_nodes; node++) {
    for (int t = 0; t < kThreadsPerNode; t++) {
      readers.emplace_back([&, node, t] {
        const RandomAccessFile& file = *files[node];
        sim::SimContext ctx;
        sim::SimContext::Scope scope(&ctx);
        Random rnd(static_cast<uint64_t>(node * kThreadsPerNode + t) + 1);
        for (;;) {
          const bool last = done.load();
          const uint64_t size = file.Size();
          if (size > 0) {
            const uint64_t offset = rnd.Uniform(size);
            const uint64_t n = std::min<uint64_t>(size - offset, 300);
            auto data = file.Read(offset, n);
            if (!data.ok() || data->size() != n) {
              bad++;
            } else {
              for (uint64_t i = 0; i < n; i++) {
                if ((*data)[i] != byte_at(offset + i)) {
                  bad++;
                  break;
                }
              }
              reads++;
            }
          }
          if (last) break;
          std::this_thread::yield();
        }
      });
    }
  }
  {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    std::string chunk;
    for (uint64_t a = 0; a < kAppends; a++) {
      chunk.clear();
      for (uint64_t i = 0; i < kAppendBytes; i++) {
        chunk.push_back(byte_at(a * kAppendBytes + i));
      }
      if (!(*wf)->Append(chunk).ok() || !(*wf)->Sync().ok()) bad++;
    }
  }
  done = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(reads.load(), options.num_nodes * kThreadsPerNode);
  EXPECT_EQ(files[1]->Size(), kAppends * kAppendBytes);
  EXPECT_EQ(HeldRankCount(), 0u);
}

// Writers, historical readers, checkpoints and a compaction all running
// against one tablet server at once: the paper's in-memory-index +
// log-only-storage design must serve all four without a data race or a
// lock-order inversion.
TEST(StressTest, TabletServerConcurrentWriteReadCheckpoint) {
  dfs::DfsOptions dfs_options;
  dfs_options.num_nodes = 3;
  auto dfs = std::make_unique<dfs::Dfs>(dfs_options);
  coord::CoordinationService coord;
  tablet::TabletServerOptions options;
  options.segment_bytes = 1 << 14;  // small segments: force frequent rolls
  auto server =
      std::make_unique<tablet::TabletServer>(options, dfs.get(), &coord);
  ASSERT_TRUE(server->Start().ok());
  tablet::TabletDescriptor d;
  d.table_id = 1;
  d.column_group = 0;
  d.range_id = 0;
  const std::string uid = d.uid();
  ASSERT_TRUE(server->OpenTablet(d).ok());

  constexpr int kWriters = 3;
  constexpr int kWritesEach = 150;
  std::atomic<bool> stop{false};
  std::atomic<int> write_failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&server, &uid, &write_failures, w] {
      for (int i = 0; i < kWritesEach; i++) {
        std::string key = "k" + std::to_string((w * 7 + i) % 40);
        if (!server->Put(uid, key, "v" + std::to_string(i)).ok()) {
          write_failures++;
        }
      }
    });
  }
  threads.emplace_back([&server, &uid, &stop] {
    Random rnd(7);
    while (!stop.load()) {
      std::string key = "k" + std::to_string(rnd.Uniform(40));
      auto read = server->Get(uid, key);               // latest version
      if (read.ok()) {
        (void)server->Get(uid, key, read->timestamp);  // historical
        (void)server->GetVersions(uid, key);
      }
    }
  });
  threads.emplace_back([&server, &stop, &write_failures] {
    while (!stop.load()) {
      if (!server->Checkpoint().ok()) write_failures++;
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWriters; w++) threads[w].join();
  stop.store(true);
  for (size_t i = kWriters; i < threads.size(); i++) threads[i].join();

  EXPECT_EQ(write_failures.load(), 0);
  tablet::CompactionStats stats;
  ASSERT_TRUE(server->CompactLog({}, &stats).ok());
  // Every key got at least one committed write; all must be readable.
  for (int k = 0; k < 40; k++) {
    EXPECT_TRUE(server->Get(uid, "k" + std::to_string(k)).ok()) << k;
  }
  ASSERT_TRUE(server->Stop().ok());
  EXPECT_EQ(HeldRankCount(), 0u);
}

// A tablet's load window is four relaxed counters that CollectLoadReport
// drains by exchange, with no lock. Writers and readers run while another
// thread collects reports in a loop: summed over every report plus a final
// one, the drained counts and bytes equal exactly the ops issued.
TEST(StressTest, LoadWindowDrainLosesNoOps) {
  dfs::DfsOptions dfs_options;
  dfs_options.num_nodes = 3;
  auto dfs = std::make_unique<dfs::Dfs>(dfs_options);
  coord::CoordinationService coord;
  auto server = std::make_unique<tablet::TabletServer>(
      tablet::TabletServerOptions{}, dfs.get(), &coord);
  ASSERT_TRUE(server->Start().ok());
  tablet::TabletDescriptor d;
  d.table_id = 3;
  d.column_group = 0;
  d.range_id = 0;
  const std::string uid = d.uid();
  ASSERT_TRUE(server->OpenTablet(d).ok());

  // Keys are 3 bytes and values 5, so every op moves 8 bytes.
  constexpr int kKeys = 40;
  constexpr uint64_t kOpBytes = 8;
  auto key = [](int i) { return "k" + std::to_string(10 + i % kKeys); };
  auto value = [](int i) { return "v" + std::to_string(1000 + i); };
  for (int k = 0; k < kKeys; k++) {
    ASSERT_TRUE(server->Put(uid, key(k), value(k)).ok());
  }
  (void)server->CollectLoadReport();  // the preload is not counted

  uint64_t read_ops = 0, write_ops = 0, read_bytes = 0, write_bytes = 0;
  auto drain = [&] {
    for (const balance::TabletLoad& t : server->CollectLoadReport().tablets) {
      read_ops += t.read_ops;
      write_ops += t.write_ops;
      read_bytes += t.read_bytes;
      write_bytes += t.write_bytes;
    }
  };

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kOpsEach = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; w++) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kOpsEach; i++) {
        if (!server->Put(uid, key(w * 7 + i), value(i)).ok()) failures++;
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    workers.emplace_back([&, r] {
      for (int i = 0; i < kOpsEach; i++) {
        if (!server->Get(uid, key(r * 13 + i)).ok()) failures++;
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load()) {
      drain();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) t.join();
  stop.store(true);
  collector.join();
  drain();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(write_ops, uint64_t{kWriters * kOpsEach});
  EXPECT_EQ(read_ops, uint64_t{kReaders * kOpsEach});
  EXPECT_EQ(write_bytes, kWriters * kOpsEach * kOpBytes);
  EXPECT_EQ(read_bytes, kReaders * kOpsEach * kOpBytes);
  ASSERT_TRUE(server->Stop().ok());
  EXPECT_EQ(HeldRankCount(), 0u);
}

// Flush/checkpoint racing a crash-restart cycle: recovery replays the tail
// correctly even when the pre-crash server was mid-checkpoint.
TEST(StressTest, CheckpointVersusWriterRecovery) {
  dfs::DfsOptions dfs_options;
  dfs_options.num_nodes = 3;
  auto dfs = std::make_unique<dfs::Dfs>(dfs_options);
  coord::CoordinationService coord;
  tablet::TabletServerOptions options;
  options.segment_bytes = 1 << 14;
  auto server =
      std::make_unique<tablet::TabletServer>(options, dfs.get(), &coord);
  ASSERT_TRUE(server->Start().ok());
  tablet::TabletDescriptor d;
  d.table_id = 2;
  d.column_group = 0;
  d.range_id = 0;
  const std::string uid = d.uid();
  ASSERT_TRUE(server->OpenTablet(d).ok());

  std::atomic<bool> stop{false};
  std::thread checkpointer([&server, &stop] {
    while (!stop.load()) {
      (void)server->Checkpoint();  // racing the crash below by design
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        server->Put(uid, "key" + std::to_string(i % 25), "v" + std::to_string(i))
            .ok());
  }
  stop.store(true);
  checkpointer.join();
  server->Crash();
  ASSERT_TRUE(server->Start().ok());
  // Each key's last acked write survives, even when a checkpoint ran
  // between that write's durable append and its publish.
  for (int k = 0; k < 25; k++) {
    auto read = server->Get(uid, "key" + std::to_string(k));
    ASSERT_TRUE(read.ok()) << k;
    EXPECT_EQ(read->value, "v" + std::to_string(175 + k)) << k;
  }
  ASSERT_TRUE(server->Stop().ok());
}

}  // namespace
}  // namespace logbase

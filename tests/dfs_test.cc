// Tests for the distributed file system: replication, rack-aware placement,
// block striping, failure handling and the FileSystem adapter.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/dfs/dfs.h"
#include "src/obs/metrics.h"
#include "src/sim/sim_context.h"
#include "src/util/random.h"

namespace logbase::dfs {
namespace {

DfsOptions SmallBlocks(int nodes = 3, uint64_t block = 1024) {
  DfsOptions options;
  options.num_nodes = nodes;
  options.block_size = block;
  options.nodes_per_rack = 2;
  return options;
}

TEST(DfsTest, CreateWriteRead) {
  Dfs dfs(SmallBlocks());
  auto wf = dfs.Create("/f", 0);
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append("hello dfs").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/f", 1);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(*(*rf)->Read(0, 9), "hello dfs");
  EXPECT_EQ((*rf)->Size(), 9u);
}

TEST(DfsTest, CreateFailsIfExists) {
  Dfs dfs(SmallBlocks());
  ASSERT_TRUE(dfs.Create("/f", 0).ok());
  EXPECT_FALSE(dfs.Create("/f", 0).ok());
}

TEST(DfsTest, OpenMissingFileFails) {
  Dfs dfs(SmallBlocks());
  EXPECT_TRUE(dfs.Open("/nope", 0).status().IsNotFound());
}

TEST(DfsTest, LargeAppendSpansBlocks) {
  Dfs dfs(SmallBlocks(3, 1000));
  auto wf = dfs.Create("/big", 0);
  std::string data(4500, 'z');
  ASSERT_TRUE((*wf)->Append(data).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/big");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 5u);  // 4 full + 1 partial
  auto rf = dfs.Open("/big", 0);
  auto all = (*rf)->Read(0, 4500);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, data);
  // Cross-block read.
  EXPECT_EQ(*(*rf)->Read(950, 100), std::string(100, 'z'));
}

TEST(DfsTest, ThreeWayReplication) {
  Dfs dfs(SmallBlocks(5));
  auto wf = dfs.Create("/r", 0);
  ASSERT_TRUE((*wf)->Append("abc").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/r");
  ASSERT_EQ(blocks->size(), 1u);
  EXPECT_EQ((*blocks)[0].replicas.size(), 3u);
  // Every replica node actually stores the bytes.
  for (int node : (*blocks)[0].replicas) {
    EXPECT_TRUE(dfs.data_node(node)->HasBlock((*blocks)[0].id));
  }
}

TEST(DfsTest, FirstReplicaIsWriterLocal) {
  Dfs dfs(SmallBlocks(5));
  auto wf = dfs.Create("/local", 3);
  ASSERT_TRUE((*wf)->Append("x").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/local");
  EXPECT_EQ((*blocks)[0].replicas[0], 3);
}

TEST(DfsTest, RackAwarePlacement) {
  // 6 nodes, 2 per rack -> racks {0,0,1,1,2,2} with nodes_per_rack=2.
  Dfs dfs(SmallBlocks(6));
  for (int i = 0; i < 20; i++) {
    auto wf = dfs.Create("/f" + std::to_string(i), 0);
    ASSERT_TRUE((*wf)->Append("data").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
    auto blocks = dfs.name_node()->GetBlocks("/f" + std::to_string(i));
    const std::vector<int>& replicas = (*blocks)[0].replicas;
    ASSERT_EQ(replicas.size(), 3u);
    auto rack = [](int node) { return node / 2; };
    // Replica 2 is off the writer's rack; replica 3 shares replica 2's rack.
    EXPECT_NE(rack(replicas[0]), rack(replicas[1]));
    EXPECT_EQ(rack(replicas[1]), rack(replicas[2]));
    EXPECT_NE(replicas[1], replicas[2]);
  }
}

TEST(DfsTest, ReadSurvivesTwoReplicaFailures) {
  Dfs dfs(SmallBlocks(4));
  auto wf = dfs.Create("/hardy", 0);
  ASSERT_TRUE((*wf)->Append("survives").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/hardy");
  const std::vector<int>& replicas = (*blocks)[0].replicas;
  dfs.KillDataNode(replicas[0]);
  dfs.KillDataNode(replicas[1]);
  auto rf = dfs.Open("/hardy", replicas[0]);
  EXPECT_EQ(*(*rf)->Read(0, 8), "survives");
}

TEST(DfsTest, ReadFailsWhenAllReplicasDead) {
  Dfs dfs(SmallBlocks(3));
  auto wf = dfs.Create("/gone", 0);
  ASSERT_TRUE((*wf)->Append("lost").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  for (int i = 0; i < 3; i++) dfs.KillDataNode(i);
  auto rf = dfs.Open("/gone", 0);
  ASSERT_TRUE(rf.ok());  // metadata still there
  EXPECT_TRUE((*rf)->Read(0, 4).status().IsUnavailable());
}

TEST(DfsTest, WriteContinuesWithReducedPipeline) {
  Dfs dfs(SmallBlocks(3));
  dfs.KillDataNode(2);
  auto wf = dfs.Create("/reduced", 0);
  ASSERT_TRUE((*wf)->Append("still works").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/reduced", 0);
  EXPECT_EQ(*(*rf)->Read(0, 11), "still works");
}

TEST(DfsTest, RereplicationRestoresCopies) {
  Dfs dfs(SmallBlocks(5));
  auto wf = dfs.Create("/heal", 0);
  ASSERT_TRUE((*wf)->Append("heal me").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/heal");
  int victim = (*blocks)[0].replicas[0];
  dfs.KillDataNode(victim);
  auto copied = dfs.HealUnderReplicated();
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 1);
  // Live replicas back to 3.
  blocks = dfs.name_node()->GetBlocks("/heal");
  int live = 0;
  for (int r : (*blocks)[0].replicas) {
    if (dfs.data_node(r)->alive() && dfs.data_node(r)->HasBlock((*blocks)[0].id)) {
      live++;
    }
  }
  EXPECT_GE(live, 3);
}

TEST(DfsTest, KillNodeRestoresReplicationOfEveryAffectedBlock) {
  Dfs dfs(SmallBlocks(6, 512));
  // Several multi-block files so the victim holds replicas of many blocks.
  for (int f = 0; f < 3; f++) {
    auto wf = dfs.Create("/kill" + std::to_string(f), f);
    ASSERT_TRUE((*wf)->Append(std::string(1800, 'a' + f)).ok());
    ASSERT_TRUE((*wf)->Sync().ok());
  }
  obs::Counter* recovered = obs::MetricsRegistry::Global().counter(
      "dfs.replication.recovered_blocks");
  uint64_t before = recovered->value();

  int victim = (*dfs.name_node()->GetBlocks("/kill0"))[0].replicas[0];
  dfs.KillDataNode(victim);
  auto copied = dfs.HealUnderReplicated();
  ASSERT_TRUE(copied.ok());
  EXPECT_GT(*copied, 0);

  // Every block of every file is back at full replication on live nodes.
  auto files = dfs.name_node()->List("");
  ASSERT_TRUE(files.ok());
  std::vector<bool> alive = dfs.AliveNodes();
  for (const std::string& path : *files) {
    auto blocks = dfs.name_node()->GetBlocks(path);
    ASSERT_TRUE(blocks.ok());
    for (const BlockInfo& block : *blocks) {
      int live = 0;
      for (int node = 0; node < dfs.num_nodes(); node++) {
        if (alive[node] && dfs.data_node(node)->HasBlock(block.id)) live++;
      }
      EXPECT_GE(live, 3) << path << " block " << block.id;
    }
  }
  EXPECT_EQ(recovered->value() - before, static_cast<uint64_t>(*copied));
}

TEST(DfsTest, NodeRestartServesOldBlocks) {
  Dfs dfs(SmallBlocks(3));
  auto wf = dfs.Create("/again", 0);
  ASSERT_TRUE((*wf)->Append("persisted").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  dfs.KillDataNode(0);
  dfs.RestartDataNode(0);
  auto rf = dfs.Open("/again", 0);
  EXPECT_EQ(*(*rf)->Read(0, 9), "persisted");
}

TEST(DfsTest, ConcurrentReaderSeesGrowingTail) {
  Dfs dfs(SmallBlocks(3, 100));
  auto wf = dfs.Create("/tail", 0);
  ASSERT_TRUE((*wf)->Append("first").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto rf = dfs.Open("/tail", 1);
  EXPECT_EQ(*(*rf)->Read(0, 5), "first");
  ASSERT_TRUE((*wf)->Append("second").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  EXPECT_EQ(*(*rf)->Read(5, 6), "second");
}

TEST(DfsTest, RetriedAppendStoresItsBytesOnce) {
  Dfs dfs(SmallBlocks(3, 1 << 20));
  std::string data(17000, '\0');
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<char>(i % 251);
  auto wf = dfs.Create("/retry", 0);
  ASSERT_TRUE((*wf)->Append(Slice(data.data(), 10000)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  // Every replica fails its next store, so the first pipeline attempt of
  // the second append reaches no replica and the retry rewrites its offset.
  for (int i = 0; i < 3; i++) dfs.data_node(i)->InjectIoErrors(1);
  ASSERT_TRUE((*wf)->Append(Slice(data.data() + 10000, 7000)).ok());
  ASSERT_TRUE((*wf)->Sync().ok());

  auto blocks = dfs.name_node()->GetBlocks("/retry");
  ASSERT_EQ(blocks->size(), 1u);
  const BlockId id = (*blocks)[0].id;
  auto bytes = dfs.data_node(0)->SharedBytes(id);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->size(), data.size());  // stored once, not 24000 bytes
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(dfs.data_node(i)->injected_io_errors(), 0);
    EXPECT_EQ(dfs.data_node(i)->SharedBytes(id), bytes);
    EXPECT_EQ(*dfs.data_node(i)->BlockSize(id), data.size());
  }
  auto rf = dfs.Open("/retry", 1);
  EXPECT_EQ(*(*rf)->Read(0, data.size()), data);
}

TEST(DfsTest, StaleReplicaReadsItsPrefixUntilHealed) {
  Dfs dfs(SmallBlocks(3));
  auto wf = dfs.Create("/stale", 0);
  ASSERT_TRUE((*wf)->Append("head").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/stale");
  const BlockId id = (*blocks)[0].id;
  const int stale = (*blocks)[0].replicas[2];
  // The replica misses the tail appends, then comes back.
  dfs.KillDataNode(stale);
  ASSERT_TRUE((*wf)->Append("tail").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  dfs.RestartDataNode(stale);
  DataNode* node = dfs.data_node(stale);
  auto bytes = node->SharedBytes(id);
  EXPECT_EQ(bytes->size(), 8u);
  EXPECT_EQ(*node->BlockSize(id), 4u);
  EXPECT_EQ(*node->ReadBlock(id, 0, 100), "head");

  auto healed = dfs.HealUnderReplicated();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, 1);
  EXPECT_EQ(*node->ReadBlock(id, 0, 100), "headtail");
  // Caught up over the same store, which still holds the bytes once.
  EXPECT_EQ(node->SharedBytes(id), bytes);
  EXPECT_EQ(bytes->size(), 8u);
  EXPECT_EQ(*dfs.HealUnderReplicated(), 0);
}

TEST(BlockBytesTest, ChunkedAppendRewriteAndCopy) {
  std::string data(20000, '\0');
  for (size_t i = 0; i < data.size(); i++) data[i] = static_cast<char>(i % 253);
  BlockBytes bytes(std::make_shared<ChunkFile>());
  bytes.WriteAt(0, Slice(data.data(), 9000));
  bytes.WriteAt(9000, Slice(data.data() + 9000, 5000));
  EXPECT_EQ(bytes.size(), 14000u);
  // Rewriting from an offset drops what followed it, across chunks.
  bytes.WriteAt(8192, Slice("xyz"));
  EXPECT_EQ(bytes.size(), 8195u);
  bytes.WriteAt(8192, Slice(data.data() + 8192, data.size() - 8192));
  EXPECT_EQ(bytes.size(), data.size());
  std::string out = "prefix";
  bytes.CopyTo(8000, 9000, &out);
  EXPECT_EQ(out, "prefix" + data.substr(8000, 9000));
  out.clear();
  bytes.CopyTo(0, data.size(), &out);
  EXPECT_EQ(out, data);
  bytes.WriteAt(0, Slice("a"));
  EXPECT_EQ(bytes.size(), 1u);
}

std::string Pattern(size_t n, int seed) {
  std::string data(n, '\0');
  for (size_t i = 0; i < n; i++) {
    data[i] = static_cast<char>((i * 7 + seed) % 251);
  }
  return data;
}

std::string Contents(const BlockBytes& bytes) {
  std::string out;
  bytes.CopyTo(0, bytes.size(), &out);
  return out;
}

TEST(BlockBytesTest, WritesEndingOnAndJustPastAChunkBoundary) {
  constexpr uint64_t kChunk = ChunkFile::kChunkBytes;
  auto file = std::make_shared<ChunkFile>();
  const std::string data = Pattern(3 * kChunk + 1, 1);
  // One write of exactly one chunk, then pieces that end on the next
  // boundary, then one byte past it.
  BlockBytes bytes(file);
  bytes.WriteAt(0, Slice(data.data(), kChunk));
  EXPECT_EQ(bytes.size(), kChunk);
  EXPECT_EQ(Contents(bytes), data.substr(0, kChunk));
  EXPECT_EQ(file->slot_count(), 1u);
  bytes.WriteAt(kChunk, Slice(data.data() + kChunk, 100));
  bytes.WriteAt(kChunk + 100, Slice(data.data() + kChunk + 100, kChunk - 100));
  EXPECT_EQ(bytes.size(), 2 * kChunk);
  EXPECT_EQ(file->slot_count(), 2u);
  bytes.WriteAt(2 * kChunk, Slice(data.data() + 2 * kChunk, kChunk + 1));
  EXPECT_EQ(bytes.size(), data.size());
  EXPECT_EQ(file->slot_count(), 3u);  // the last byte stays on the heap
  EXPECT_EQ(Contents(bytes), data);
  // A single write one byte past a boundary, into a block of its own.
  BlockBytes other(file);
  other.WriteAt(0, Slice(data.data(), kChunk + 1));
  EXPECT_EQ(other.size(), kChunk + 1);
  EXPECT_EQ(Contents(other), data.substr(0, kChunk + 1));
  EXPECT_EQ(Contents(bytes), data);
}

TEST(BlockBytesTest, CopySpansFileChunksAndTheTail) {
  constexpr uint64_t kChunk = ChunkFile::kChunkBytes;
  auto file = std::make_shared<ChunkFile>();
  const std::string a = Pattern(3 * kChunk + 1500, 2);
  const std::string b = Pattern(2 * kChunk + 10, 3);
  // Interleaved appends leave each block's chunks in slots that are not
  // all consecutive.
  BlockBytes x(file), y(file);
  x.WriteAt(0, Slice(a.data(), kChunk + 10));
  y.WriteAt(0, Slice(b.data(), kChunk));
  x.WriteAt(kChunk + 10, Slice(a.data() + kChunk + 10, a.size() - kChunk - 10));
  y.WriteAt(kChunk, Slice(b.data() + kChunk, b.size() - kChunk));
  const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, 10},                        // inside the first file chunk
      {kChunk - 5, 10},               // across two file chunks
      {100, 3 * kChunk},              // across three file chunks and the tail
      {2 * kChunk + 7, kChunk + 100}, // the last file chunk into the tail
      {3 * kChunk + 3, 1000},         // the tail alone
      {0, a.size()},
  };
  for (auto [offset, n] : ranges) {
    std::string out = "p";
    x.CopyTo(offset, n, &out);
    EXPECT_EQ(out, std::string("p").append(a, offset, n))
        << offset << "+" << n;
  }
  EXPECT_EQ(Contents(y), b);
}

TEST(BlockBytesTest, RewindIntoAFileChunkThenRewrite) {
  constexpr uint64_t kChunk = ChunkFile::kChunkBytes;
  auto file = std::make_shared<ChunkFile>();
  const std::string data = Pattern(3 * kChunk + 500, 4);
  BlockBytes bytes(file);
  bytes.WriteAt(0, Slice(data));
  EXPECT_EQ(file->slot_count(), 3u);
  // Rewind into the middle of the second chunk, which is in the file: its
  // kept prefix comes back to the heap and the later chunks are freed.
  const uint64_t rewind = kChunk + 1000;
  bytes.WriteAt(rewind, Slice("xyz"));
  EXPECT_EQ(bytes.size(), rewind + 3);
  EXPECT_EQ(Contents(bytes), data.substr(0, rewind) + "xyz");
  // Rewriting the rest reuses the freed slots.
  const std::string again = Pattern(data.size(), 5);
  bytes.WriteAt(rewind, Slice(again.data() + rewind, again.size() - rewind));
  EXPECT_EQ(Contents(bytes), data.substr(0, rewind) + again.substr(rewind));
  EXPECT_EQ(file->slot_count(), 3u);
  // A rewind to exactly a chunk boundary keeps no partial chunk.
  bytes.WriteAt(2 * kChunk, Slice(again.data(), 10));
  EXPECT_EQ(Contents(bytes), data.substr(0, rewind) +
                                 again.substr(rewind, 2 * kChunk - rewind) +
                                 again.substr(0, 10));
  // A freed block's slots go to the next block.
  { BlockBytes doomed(file); doomed.WriteAt(0, Slice(data)); }
  BlockBytes reuser(file);
  reuser.WriteAt(0, Slice(data));
  EXPECT_EQ(file->slot_count(), 5u);
  EXPECT_EQ(Contents(reuser), data);
}

TEST(DfsTest, TwoClustersInOneProcessKeepTheirOwnBytes) {
  Dfs one(SmallBlocks(3, 64 << 10));
  Dfs two(SmallBlocks(3, 64 << 10));
  const std::string a = Pattern(150000, 6);
  const std::string b = Pattern(150000, 7);
  auto write = [](Dfs* dfs, const std::string& data) {
    auto wf = dfs->Create("/same/path", 0);
    ASSERT_TRUE(wf.ok());
    for (size_t at = 0; at < data.size(); at += 5000) {
      ASSERT_TRUE((*wf)->Append(Slice(data.data() + at,
                                      std::min<size_t>(5000, data.size() - at)))
                      .ok());
      ASSERT_TRUE((*wf)->Sync().ok());
    }
  };
  std::thread t1(write, &one, a);
  std::thread t2(write, &two, b);
  t1.join();
  t2.join();
  auto r1 = one.Open("/same/path", 1);
  auto r2 = two.Open("/same/path", 2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(*(*r1)->Read(0, a.size()), a);
  EXPECT_EQ(*(*r2)->Read(0, b.size()), b);
}

TEST(DfsTest, DeleteReclaimsBlocks) {
  Dfs dfs(SmallBlocks(3));
  auto wf = dfs.Create("/tmp", 0);
  ASSERT_TRUE((*wf)->Append("bytes").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  auto blocks = dfs.name_node()->GetBlocks("/tmp");
  BlockId id = (*blocks)[0].id;
  ASSERT_TRUE(dfs.Delete("/tmp").ok());
  EXPECT_FALSE(dfs.Exists("/tmp"));
  for (int i = 0; i < 3; i++) {
    EXPECT_FALSE(dfs.data_node(i)->HasBlock(id));
  }
}

TEST(DfsTest, RenameAndList) {
  Dfs dfs(SmallBlocks(3));
  ASSERT_TRUE(dfs.Create("/dir/a", 0).ok());
  ASSERT_TRUE(dfs.Create("/dir/b", 0).ok());
  ASSERT_TRUE(dfs.Rename("/dir/a", "/dir/c").ok());
  auto names = dfs.List("/dir/");
  ASSERT_TRUE(names.ok());
  std::set<std::string> set(names->begin(), names->end());
  EXPECT_EQ(set, (std::set<std::string>{"/dir/b", "/dir/c"}));
}

/// Writes `data` to a fresh `path` and closes it.
void WriteFile(Dfs* dfs, const std::string& path, const std::string& data) {
  auto wf = dfs->Create(path, 0);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  ASSERT_TRUE((*wf)->Append(data).ok());
  ASSERT_TRUE((*wf)->Close().ok());
}

// The checkpoint idiom (write a temp file, rename it over the live one)
// frees the replaced file's blocks, so repeating it holds storage steady.
TEST(DfsTest, RenameOverFileFreesItsBlocks) {
  Dfs dfs(SmallBlocks(3));
  const std::string data(2500, 'c');  // three 1 KB blocks
  auto storage = [&dfs] {
    std::pair<size_t, uint64_t> total{0, 0};
    for (int i = 0; i < dfs.num_nodes(); i++) {
      total.first += dfs.data_node(i)->ListBlocks().size();
      total.second += dfs.data_node(i)->used_bytes();
    }
    return total;
  };
  WriteFile(&dfs, "/ckpt", data);
  const auto steady = storage();
  EXPECT_EQ(steady.first, 9u);  // 3 blocks x 3 replicas
  EXPECT_EQ(steady.second, 3 * data.size());
  for (int round = 0; round < 5; round++) {
    WriteFile(&dfs, "/ckpt.tmp", data);
    ASSERT_TRUE(dfs.Rename("/ckpt.tmp", "/ckpt").ok());
    EXPECT_EQ(storage(), steady) << "round " << round;
  }
  auto rf = dfs.Open("/ckpt", 1);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(*(*rf)->Read(0, data.size()), data);
}

// A reader of a replaced file fails like a reader of a deleted one, whether
// or not it read before the rename: it never returns the new file's bytes.
TEST(DfsTest, ReaderOfReplacedFileFails) {
  Dfs dfs(SmallBlocks(3));
  const std::string old_data(1500, 'o');
  const std::string new_data(3000, 'n');
  WriteFile(&dfs, "/ckpt", old_data);
  auto warm = dfs.Open("/ckpt", 1);  // has read the old file's first block
  auto cold = dfs.Open("/ckpt", 2);  // has read nothing yet
  ASSERT_TRUE(warm.ok() && cold.ok());
  ASSERT_EQ(*(*warm)->Read(0, 100), old_data.substr(0, 100));

  WriteFile(&dfs, "/ckpt.tmp", new_data);
  ASSERT_TRUE(dfs.Rename("/ckpt.tmp", "/ckpt").ok());
  EXPECT_FALSE((*warm)->Read(0, 100).ok());  // its cached blocks are freed
  EXPECT_FALSE((*warm)->Read(0, 3000).ok());  // refetch finds another file
  EXPECT_FALSE((*cold)->Read(0, 100).ok());
  EXPECT_EQ((*warm)->Size(), 0u);
  auto fresh = dfs.Open("/ckpt", 1);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*(*fresh)->Read(0, new_data.size()), new_data);
}

TEST(DfsTest, WritesChargeDiskAndNetwork) {
  Dfs dfs(SmallBlocks(3));
  sim::SimContext ctx;
  {
    sim::SimContext::Scope scope(&ctx);
    auto wf = dfs.Create("/cost", 0);
    ASSERT_TRUE((*wf)->Append(std::string(1 << 20, 'c')).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  // Synchronous 3-way pipeline of 1 MB must cost milliseconds of virtual
  // time (disk + two network hops).
  EXPECT_GT(ctx.now(), 10000);
  EXPECT_GT(dfs.data_node(0)->disk()->resource()->total_busy_us(), 0);
}

// A plain Sync (checkpoints, sstables, flushes) streams down the chain, so
// the writer's NIC sends each byte once, as each remote replica receives
// it. Only a log syncing through SyncWith fans its copies out from the
// writer.
TEST(DfsTest, PlainSyncSendsOneCopyFromTheWriter) {
  DfsOptions options;
  options.num_nodes = 3;
  Dfs dfs(options);
  sim::NetworkModel* net = dfs.network();
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  auto wf = dfs.Create("/bulk", 0);
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append(std::string(1 << 20, 'b')).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  const sim::VirtualTime one_copy = net->nic_rx(1)->total_busy_us();
  EXPECT_GT(one_copy, 0);
  EXPECT_EQ(net->nic_rx(2)->total_busy_us(), one_copy);
  EXPECT_EQ(net->nic_tx(0)->total_busy_us(), one_copy);
}

TEST(DfsTest, LocalReadSkipsNetwork) {
  Dfs dfs(SmallBlocks(3));
  {
    auto wf = dfs.Create("/near", 1);
    ASSERT_TRUE((*wf)->Append(std::string(100000, 'n')).ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  sim::SimContext local, remote;
  {
    sim::SimContext::Scope scope(&local);
    auto rf = dfs.Open("/near", 1);  // writer-local node holds replica 1
    ASSERT_TRUE((*rf)->Read(0, 100000).ok());
  }
  {
    sim::SimContext::Scope scope(&remote);
    // Pick a node with no replica.
    auto blocks = dfs.name_node()->GetBlocks("/near");
    int outsider = -1;
    for (int i = 0; i < 3; i++) {
      const auto& reps = (*blocks)[0].replicas;
      if (std::find(reps.begin(), reps.end(), i) == reps.end()) outsider = i;
    }
    if (outsider >= 0) {
      auto rf = dfs.Open("/near", outsider);
      ASSERT_TRUE((*rf)->Read(0, 100000).ok());
      EXPECT_GT(remote.now(), local.now());
    }
  }
}

uint64_t RemotePreads(const obs::MetricsSnapshot& before) {
  return obs::MetricsRegistry::Global()
      .Snapshot()
      .Delta(before)
      .CounterValue("dfs.pread.remote");
}

// With every disk idle the expected completions tie, and a tie goes to the
// local replica: no read leaves its node.
TEST(DfsTest, IdleClusterReadsLocally) {
  Dfs dfs(SmallBlocks(3, 1 << 20));
  {
    auto wf = dfs.Create("/idle", 0);
    ASSERT_TRUE((*wf)->Append(std::string(64 << 10, 'i')).ok());
    ASSERT_TRUE((*wf)->Sync().ok());
  }
  const std::vector<int> replicas =
      (*dfs.name_node()->GetBlocks("/idle"))[0].replicas;
  const auto before = obs::MetricsRegistry::Global().Snapshot();
  for (int node : replicas) {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    auto rf = dfs.Open("/idle", node);
    Random rnd(static_cast<uint64_t>(node) + 1);
    for (int i = 0; i < 20; i++) {
      ASSERT_TRUE((*rf)->Read(rnd.Uniform(60 << 10), 100).ok());
    }
  }
  EXPECT_EQ(RemotePreads(before), 0u);
}

// While a read of node 0 is still outstanding on its local disk (sent, not
// yet back), another random read from node 0 goes to a remote replica and
// finishes before the local queue would have let it start.
TEST(DfsTest, RandomReadAvoidsBusyLocalReplica) {
  Dfs dfs(SmallBlocks(3, 1 << 20));
  {
    auto wf = dfs.Create("/busy", 0);
    ASSERT_TRUE((*wf)->Append(std::string(64 << 10, 'b')).ok());
    ASSERT_TRUE((*wf)->Sync().ok());
  }
  const std::vector<int> replicas =
      (*dfs.name_node()->GetBlocks("/busy"))[0].replicas;
  ASSERT_EQ(replicas[0], 0);  // the writer's node holds the first copy
  // Someone else's work holds node 0's disk for 200 ms.
  constexpr sim::VirtualTime kBacklog = 200000;
  dfs.data_node(0)->disk()->resource()->Acquire(0, kBacklog);
  const auto before = obs::MetricsRegistry::Global().Snapshot();
  // A first read on node 0 sees nothing outstanding, so it stays local and
  // queues behind the backlog.
  sim::SimContext first;
  {
    sim::SimContext::Scope scope(&first);
    auto rf = dfs.Open("/busy", 0);
    ASSERT_TRUE((*rf)->Read(1000, 100).ok());
  }
  EXPECT_GT(first.now(), kBacklog);
  EXPECT_EQ(RemotePreads(before), 0u);
  // At t = 1 ms node 0 has sent that read and not heard back: a second
  // actor's read, through its own handle, goes to a remote replica.
  sim::SimContext second(1000);
  {
    sim::SimContext::Scope scope(&second);
    auto rf = dfs.Open("/busy", 0);
    EXPECT_EQ(*(*rf)->Read(40000, 100), std::string(100, 'b'));
  }
  EXPECT_EQ(RemotePreads(before), 1u);
  EXPECT_LT(second.now(), kBacklog);
  const sim::DiskParams& disk = dfs.data_node(0)->disk()->params();
  EXPECT_LT(second.now(), 1000 + 2 * (disk.seek_us + disk.rotational_us));
  sim::VirtualTime remote_busy = 0;
  for (int r : replicas) {
    if (r != 0) {
      remote_busy += dfs.data_node(r)->disk()->resource()->total_busy_us();
    }
  }
  EXPECT_GT(remote_busy, 0);
}

// The view holds only what the reader node knows at its own time: a read
// another actor of the node sends later in virtual time, or one whose
// response has already come back, does not steer a read.
TEST(DfsTest, ReadViewUsesOnlyWhatTheReaderKnowsAtItsTime) {
  Dfs dfs(SmallBlocks(3, 1 << 20));
  {
    auto wf = dfs.Create("/causal", 0);
    ASSERT_TRUE((*wf)->Append(std::string(64 << 10, 'c')).ok());
    ASSERT_TRUE((*wf)->Sync().ok());
  }
  ASSERT_EQ((*dfs.name_node()->GetBlocks("/causal"))[0].replicas[0], 0);
  constexpr sim::VirtualTime kBacklog = 200000;
  dfs.data_node(0)->disk()->resource()->Acquire(0, kBacklog);
  const auto before = obs::MetricsRegistry::Global().Snapshot();
  auto read_at = [&](sim::VirtualTime start, uint64_t offset) {
    sim::SimContext ctx(start);
    sim::SimContext::Scope scope(&ctx);
    auto rf = dfs.Open("/causal", 0);
    EXPECT_TRUE((*rf)->Read(offset, 100).ok());
    return ctx.now();
  };
  // An actor run ahead to t = 100 ms reads locally and queues.
  const sim::VirtualTime ahead_done = read_at(100000, 1000);
  EXPECT_GT(ahead_done, kBacklog);
  // An actor still at t = 1 ms: that read has not been sent yet, so this
  // one stays local too, although the simulation already ran it.
  const sim::VirtualTime behind_done = read_at(1000, 20000);
  EXPECT_EQ(RemotePreads(before), 0u);
  // After both responses came back nothing is outstanding: local again.
  read_at(std::max(ahead_done, behind_done), 40000);
  EXPECT_EQ(RemotePreads(before), 0u);
}

// A reader tailing a file in consecutive chunks stays on the replica its
// first read chose: one positioning in total, one disk charged. Here the
// first chunk leaves a local disk that another read of the node is still
// waiting on; the tail then runs past that read's return, and the stream
// keeps it on the remote replica. Like a log tailer's polls, each chunk
// opens the file afresh: the stream is the node's, not the handle's.
TEST(DfsTest, SequentialReaderStaysOnItsReplica) {
  Dfs dfs(SmallBlocks(3, 4 << 20));
  constexpr uint64_t kChunk = 64 << 10;
  constexpr int kChunks = 32;
  {
    auto wf = dfs.Create("/tail", 0);
    ASSERT_TRUE((*wf)->Append(std::string(kChunk * kChunks, 't')).ok());
    ASSERT_TRUE((*wf)->Sync().ok());
  }
  const std::vector<int> replicas =
      (*dfs.name_node()->GetBlocks("/tail"))[0].replicas;
  ASSERT_EQ(replicas[0], 0);
  // Node 0's disk is queued 10 ms deep, and a random read of node 0 sent at
  // t = 0 waits behind that.
  constexpr sim::VirtualTime kBacklog = 10000;
  dfs.data_node(0)->disk()->resource()->Acquire(0, kBacklog);
  sim::SimContext other;
  {
    sim::SimContext::Scope scope(&other);
    auto rf = dfs.Open("/tail", 0);
    ASSERT_TRUE((*rf)->Read(kChunk * kChunks / 2, 100).ok());
  }
  std::vector<sim::VirtualTime> busy_before;
  for (int r : replicas) {
    busy_before.push_back(
        dfs.data_node(r)->disk()->resource()->total_busy_us());
  }
  const auto before = obs::MetricsRegistry::Global().Snapshot();
  sim::SimContext tail(1000);
  {
    sim::SimContext::Scope scope(&tail);
    for (int i = 0; i < kChunks; i++) {
      auto rf = dfs.Open("/tail", 0);
      ASSERT_TRUE((*rf)->Read(i * kChunk, kChunk).ok());
    }
  }
  EXPECT_GT(tail.now(), other.now());  // the other read had come back
  EXPECT_EQ(RemotePreads(before), static_cast<uint64_t>(kChunks));
  int charged = 0;
  sim::VirtualTime busy = 0;
  for (size_t i = 0; i < replicas.size(); i++) {
    sim::VirtualTime t =
        dfs.data_node(replicas[i])->disk()->resource()->total_busy_us() -
        busy_before[i];
    if (t > 0) charged++;
    busy += t;
  }
  EXPECT_EQ(charged, 1);
  // One positioning, then every chunk at the disk's sequential rate.
  const sim::DiskParams& disk = dfs.data_node(0)->disk()->params();
  const sim::VirtualTime transfer =
      static_cast<sim::VirtualTime>(kChunk / disk.bandwidth_mb_per_s) + 1;
  EXPECT_EQ(busy, disk.seek_us + disk.rotational_us + kChunks * transfer);
}

// FileSystem adapter behaves like the generic interface.
TEST(DfsFileSystemTest, AdapterRoundTrip) {
  Dfs dfs(SmallBlocks(3));
  DfsFileSystem fs(&dfs, 0);
  auto wf = fs.NewWritableFile("/adapter");
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append("via adapter").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  EXPECT_TRUE(fs.Exists("/adapter"));
  EXPECT_EQ(*fs.FileSize("/adapter"), 11u);
  auto rf = fs.NewRandomAccessFile("/adapter");
  EXPECT_EQ(*(*rf)->Read(4, 7), "adapter");
}

TEST(DfsFileSystemTest, NewWritableFileTruncatesExisting) {
  Dfs dfs(SmallBlocks(3));
  DfsFileSystem fs(&dfs, 0);
  {
    auto wf = fs.NewWritableFile("/t");
    ASSERT_TRUE((*wf)->Append("old contents").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  {
    auto wf = fs.NewWritableFile("/t");
    ASSERT_TRUE(wf.ok());
    ASSERT_TRUE((*wf)->Append("new").ok());
  ASSERT_TRUE((*wf)->Sync().ok());
  }
  EXPECT_EQ(*fs.FileSize("/t"), 3u);
}

}  // namespace
}  // namespace logbase::dfs

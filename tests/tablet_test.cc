// Tests for the tablet server: read buffer, data operations, multiversion
// access, checkpointing, crash recovery and log compaction.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/dfs/dfs.h"
#include "src/query/plan.h"
#include "src/sim/disk_model.h"
#include "src/sim/sim_context.h"
#include "src/tablet/read_buffer.h"
#include "src/tablet/tablet_server.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace logbase::tablet {
namespace {

// ---------------------------------------------------------------------------
// Read buffer
// ---------------------------------------------------------------------------

TEST(ReadBufferTest, HitAndMiss) {
  ReadBuffer buffer(1024, MakeLruPolicy());
  CachedRecord rec;
  EXPECT_FALSE(buffer.Get("k", &rec));
  buffer.Put("k", CachedRecord{1, "v"});
  ASSERT_TRUE(buffer.Get("k", &rec));
  EXPECT_EQ(rec.value, "v");
  EXPECT_EQ(buffer.hits(), 1u);
  EXPECT_EQ(buffer.misses(), 1u);
}

TEST(ReadBufferTest, KeepsNewerVersionOnConflict) {
  ReadBuffer buffer(1024, MakeLruPolicy());
  buffer.Put("k", CachedRecord{5, "newer"});
  buffer.Put("k", CachedRecord{3, "older"});
  CachedRecord rec;
  ASSERT_TRUE(buffer.Get("k", &rec));
  EXPECT_EQ(rec.value, "newer");
  EXPECT_EQ(rec.timestamp, 5u);
}

TEST(ReadBufferTest, LruEvictsColdEntries) {
  ReadBuffer buffer(30, MakeLruPolicy());
  buffer.Put("a", CachedRecord{1, std::string(9, 'x')});  // 10 bytes
  buffer.Put("b", CachedRecord{1, std::string(9, 'x')});
  CachedRecord rec;
  ASSERT_TRUE(buffer.Get("a", &rec));  // touch a; b is now LRU
  buffer.Put("c", CachedRecord{1, std::string(9, 'x')});
  buffer.Put("d", CachedRecord{1, std::string(9, 'x')});
  EXPECT_FALSE(buffer.Get("b", &rec));
  EXPECT_TRUE(buffer.Get("a", &rec));
}

TEST(ReadBufferTest, FifoIgnoresAccessRecency) {
  ReadBuffer buffer(30, MakeFifoPolicy());
  buffer.Put("a", CachedRecord{1, std::string(9, 'x')});
  buffer.Put("b", CachedRecord{1, std::string(9, 'x')});
  CachedRecord rec;
  ASSERT_TRUE(buffer.Get("a", &rec));  // does not save "a" under FIFO
  buffer.Put("c", CachedRecord{1, std::string(9, 'x')});
  buffer.Put("d", CachedRecord{1, std::string(9, 'x')});
  EXPECT_FALSE(buffer.Get("a", &rec));  // first in, first out
}

TEST(ReadBufferTest, InvalidateRemoves) {
  ReadBuffer buffer(1024, MakeLruPolicy());
  buffer.Put("k", CachedRecord{1, "v"});
  buffer.Invalidate("k");
  CachedRecord rec;
  EXPECT_FALSE(buffer.Get("k", &rec));
}

TEST(ReadBufferTest, DisabledBufferIsNoop) {
  ReadBuffer buffer(0, MakeLruPolicy());
  EXPECT_FALSE(buffer.enabled());
  buffer.Put("k", CachedRecord{1, "v"});
  CachedRecord rec;
  EXPECT_FALSE(buffer.Get("k", &rec));
}

// ---------------------------------------------------------------------------
// Tablet server fixture
// ---------------------------------------------------------------------------

TabletDescriptor Descriptor(uint32_t table = 1, uint32_t group = 0,
                            uint32_t range = 0) {
  TabletDescriptor d;
  d.table_id = table;
  d.table_name = "t";
  d.column_group = group;
  d.range_id = range;
  return d;
}

/// The tablet's rows in [start, end) at the newest versions: a match-all
/// ExecuteScan, the server's one range read.
Result<std::vector<ReadRow>> ScanRows(TabletServer* server,
                                      const std::string& uid,
                                      const std::string& start,
                                      const std::string& end) {
  query::QueryPlan plan;
  plan.start_key = start;
  plan.end_key = end;
  auto result = server->ExecuteScan(uid, plan);
  if (!result.ok()) return result.status();
  return RowsFromBatches(result->batches);
}

struct ServerFixture {
  dfs::DfsOptions dfs_options;
  std::unique_ptr<dfs::Dfs> dfs;
  coord::CoordinationService coord;
  std::unique_ptr<TabletServer> server;
  std::string uid;

  explicit ServerFixture(TabletServerOptions options = {},
                         uint64_t segment_bytes = 1 << 16) {
    dfs_options.num_nodes = 3;
    dfs = std::make_unique<dfs::Dfs>(dfs_options);
    options.segment_bytes = segment_bytes;
    server = std::make_unique<TabletServer>(options, dfs.get(), &coord);
    EXPECT_TRUE(server->Start().ok());
    TabletDescriptor d = Descriptor();
    uid = d.uid();
    EXPECT_TRUE(server->OpenTablet(d).ok());
  }
};

TEST(TabletServerTest, PutGet) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "user1", "hello").ok());
  auto read = f.server->Get(f.uid, "user1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "hello");
  EXPECT_GT(read->timestamp, 0u);
}

TEST(TabletServerTest, GetMissingKey) {
  ServerFixture f;
  EXPECT_TRUE(f.server->Get(f.uid, "ghost").status().IsNotFound());
}

TEST(TabletServerTest, UnknownTabletRejected) {
  ServerFixture f;
  EXPECT_TRUE(f.server->Put("t9.g9.r9", "k", "v").IsNotFound());
}

TEST(TabletServerTest, OverwriteCreatesNewVersion) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "k", "v1").ok());
  auto first = f.server->Get(f.uid, "k");
  ASSERT_TRUE(f.server->Put(f.uid, "k", "v2").ok());
  auto second = f.server->Get(f.uid, "k");
  EXPECT_EQ(second->value, "v2");
  EXPECT_GT(second->timestamp, first->timestamp);

  // Historical read at the first version's timestamp (§3.6.2).
  auto historical = f.server->Get(f.uid, "k", first->timestamp);
  ASSERT_TRUE(historical.ok());
  EXPECT_EQ(historical->value, "v1");

  auto versions = f.server->GetVersions(f.uid, "k");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ((*versions)[0].value, "v2");  // newest first
  EXPECT_EQ((*versions)[1].value, "v1");
}

TEST(TabletServerTest, DeleteHidesAllVersions) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "k", "v1").ok());
  ASSERT_TRUE(f.server->Put(f.uid, "k", "v2").ok());
  ASSERT_TRUE(f.server->Delete(f.uid, "k").ok());
  EXPECT_TRUE(f.server->Get(f.uid, "k").status().IsNotFound());
  EXPECT_TRUE(f.server->Get(f.uid, "k", index::kLatest).status().IsNotFound());
  EXPECT_TRUE(f.server->GetVersions(f.uid, "k")->empty());
  // Reinsertion works.
  ASSERT_TRUE(f.server->Put(f.uid, "k", "reborn").ok());
  EXPECT_EQ(f.server->Get(f.uid, "k")->value, "reborn");
}

TEST(TabletServerTest, ScanReturnsSortedLatestVersions) {
  ServerFixture f;
  for (int i = 9; i >= 0; i--) {
    ASSERT_TRUE(
        f.server->Put(f.uid, "key" + std::to_string(i), "v" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(f.server->Put(f.uid, "key3", "v3-updated").ok());
  auto rows = ScanRows(f.server.get(), f.uid, "key2", "key6");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0].key, "key2");
  EXPECT_EQ((*rows)[1].value, "v3-updated");
  EXPECT_EQ((*rows)[3].key, "key5");
}

TEST(TabletServerTest, PutBatchGroupCommits) {
  ServerFixture f;
  std::vector<WriteOp> ops;
  for (int i = 0; i < 50; i++) {
    ops.push_back(
        {f.uid, "batch" + std::to_string(i), "v" + std::to_string(i)});
  }
  auto batch = f.server->Submit(ops);
  ASSERT_TRUE(batch.ok());
  // Durable is not yet visible: the ops show up at Publish.
  ASSERT_TRUE(f.server->Wait(&*batch).ok());
  EXPECT_TRUE(f.server->Get(f.uid, "batch0").status().IsNotFound());
  ASSERT_TRUE(f.server->Publish(*batch).ok());
  for (const WriteOp& op : ops) {
    EXPECT_EQ(f.server->Get(f.uid, op.key)->value, op.value);
  }
}

// A delete takes effect only once its INVALIDATE record is durable: when the
// log append fails, the key keeps its value, before and after a restart.
TEST(TabletServerTest, FailedDeleteLosesNothing) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "k", "kept").ok());
  for (int node = 0; node < 3; node++) {
    f.dfs->data_node(node)->InjectIoErrors(1000);
  }
  EXPECT_FALSE(f.server->Delete(f.uid, "k").ok());
  for (int node = 0; node < 3; node++) {
    f.dfs->data_node(node)->InjectIoErrors(0);
  }
  auto before = f.server->Get(f.uid, "k");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->value, "kept");

  f.server->Crash();
  ASSERT_TRUE(f.server->Start().ok());
  auto after = f.server->Get(f.uid, "k");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->value, "kept");
}

TEST(TabletServerTest, ReadBufferServesRepeatReads) {
  TabletServerOptions options;
  options.read_buffer_bytes = 1 << 20;
  ServerFixture f(options);
  ASSERT_TRUE(f.server->Put(f.uid, "hot", "value").ok());
  ASSERT_TRUE(f.server->Get(f.uid, "hot").ok());
  uint64_t hits_before = f.server->read_buffer()->hits();
  ASSERT_TRUE(f.server->Get(f.uid, "hot").ok());
  EXPECT_GT(f.server->read_buffer()->hits(), hits_before);
}

// A read-buffer hit is still a read: transactional snapshot reads served
// from the buffer must reach the load report the balancer scores.
TEST(TabletServerTest, BufferedGetAsOfCountsAsRead) {
  TabletServerOptions options;
  options.read_buffer_bytes = 1 << 20;
  ServerFixture f(options);
  ASSERT_TRUE(f.server->Put(f.uid, "hot", "value").ok());  // fills the buffer
  (void)f.server->CollectLoadReport();  // drain the write's window
  ASSERT_TRUE(f.server->Get(f.uid, "hot", index::kLatest).ok());
  ASSERT_TRUE(f.server->Get(f.uid, "hot", index::kLatest).ok());
  balance::LoadReport report = f.server->CollectLoadReport();
  ASSERT_EQ(report.tablets.size(), 1u);
  EXPECT_EQ(report.tablets[0].read_ops, 2u);
}

TEST(TabletServerTest, FullScanCountsLiveRecords) {
  ServerFixture f;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  // Overwrites and deletes leave stale log entries that must not count.
  ASSERT_TRUE(f.server->Put(f.uid, "k3", "v2").ok());
  ASSERT_TRUE(f.server->Delete(f.uid, "k5").ok());
  auto live = f.server->FullScanCount(f.uid);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 19u);  // 20 - 1 deleted
}

TEST(TabletServerTest, OpsRejectedWhileDown) {
  ServerFixture f;
  f.server->Crash();
  EXPECT_TRUE(f.server->Put(f.uid, "k", "v").IsUnavailable());
  EXPECT_TRUE(f.server->Get(f.uid, "k").status().IsUnavailable());
}

TEST(TabletServerTest, MultipleTabletsShareOneLog) {
  ServerFixture f;
  TabletDescriptor d2 = Descriptor(1, 1, 0);  // second column group
  ASSERT_TRUE(f.server->OpenTablet(d2).ok());
  ASSERT_TRUE(f.server->Put(f.uid, "k", "group0").ok());
  ASSERT_TRUE(f.server->Put(d2.uid(), "k", "group1").ok());
  EXPECT_EQ(f.server->Get(f.uid, "k")->value, "group0");
  EXPECT_EQ(f.server->Get(d2.uid(), "k")->value, "group1");
  // One shared log instance: both records live in the same directory.
  log::LogReader* reader = f.server->ReaderFor(f.server->server_id());
  EXPECT_EQ(reader->ListSegments()->size(), 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint + recovery
// ---------------------------------------------------------------------------

TEST(RecoveryTest, RestartWithoutCheckpointReplaysWholeLog) {
  ServerFixture f;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_FALSE(stats.loaded_checkpoint);
  EXPECT_EQ(stats.redo_records, 100u);
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(f.server->Get(f.uid, "k" + std::to_string(i)).ok()) << i;
  }
}

TEST(RecoveryTest, CheckpointShrinksRedoWork) {
  ServerFixture f;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "a" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(f.server->Checkpoint().ok());
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "b" + std::to_string(i), "v").ok());
  }
  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_TRUE(stats.loaded_checkpoint);
  EXPECT_EQ(stats.checkpoint_entries, 100u);
  EXPECT_EQ(stats.redo_records, 25u);  // only the tail
  EXPECT_TRUE(f.server->Get(f.uid, "a99").ok());
  EXPECT_TRUE(f.server->Get(f.uid, "b24").ok());
}

TEST(RecoveryTest, DeleteIsDurableAcrossRestart) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "gone", "v").ok());
  ASSERT_TRUE(f.server->Checkpoint().ok());  // checkpoint CONTAINS the key
  ASSERT_TRUE(f.server->Delete(f.uid, "gone").ok());
  f.server->Crash();
  ASSERT_TRUE(f.server->Start().ok());
  // The invalidated entry in the tail re-applies the deletion (§3.6.3).
  EXPECT_TRUE(f.server->Get(f.uid, "gone").status().IsNotFound());
}

TEST(RecoveryTest, RepeatedCrashDuringRecoveryIsIdempotent) {
  ServerFixture f;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  for (int crash = 0; crash < 3; crash++) {
    f.server->Crash();
    ASSERT_TRUE(f.server->Start().ok());
  }
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(f.server->Get(f.uid, "k" + std::to_string(i)).ok());
  }
}

TEST(RecoveryTest, WritesAfterRecoveryGetFreshLsns) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "pre", "v").ok());
  f.server->Crash();
  ASSERT_TRUE(f.server->Start().ok());
  ASSERT_TRUE(f.server->Put(f.uid, "post", "v").ok());
  // Both visible; a second crash/restart still recovers both.
  f.server->Crash();
  ASSERT_TRUE(f.server->Start().ok());
  EXPECT_TRUE(f.server->Get(f.uid, "pre").ok());
  EXPECT_TRUE(f.server->Get(f.uid, "post").ok());
}

TEST(RecoveryTest, MultiVersionHistorySurvivesRestart) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "k", "v1").ok());
  auto first = f.server->Get(f.uid, "k");
  ASSERT_TRUE(f.server->Put(f.uid, "k", "v2").ok());
  f.server->Crash();
  ASSERT_TRUE(f.server->Start().ok());
  EXPECT_EQ(f.server->Get(f.uid, "k")->value, "v2");
  EXPECT_EQ(f.server->Get(f.uid, "k", first->timestamp)->value, "v1");
}

TEST(RecoveryTest, AutoCheckpointAtThreshold) {
  TabletServerOptions options;
  options.checkpoint_update_threshold = 50;
  ServerFixture f(options);
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_TRUE(stats.loaded_checkpoint);
  EXPECT_LT(stats.redo_records, 60u);
}

TEST(RecoveryTest, CheckpointBeforePublishKeepsTheDurableBatch) {
  ServerFixture f;
  auto batch = f.server->Submit({{f.uid, "k", "v", false}});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(f.server->Wait(&*batch).ok());
  // The batch is durable but not yet in the index the checkpoint writes.
  ASSERT_TRUE(f.server->Checkpoint().ok());
  ASSERT_TRUE(f.server->Publish(*batch).ok());
  ASSERT_EQ(f.server->Get(f.uid, "k")->value, "v");  // acked
  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_EQ(stats.redo_records, 1u);  // the redo starts at the batch
  auto got = f.server->Get(f.uid, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "v");
}

TEST(RecoveryTest, DroppedBatchNoLongerHoldsBackTheCheckpoint) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "kept", "v").ok());
  {
    auto batch = f.server->Submit({{f.uid, "dropped", "v", false}});
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(f.server->Wait(&*batch).ok());
  }  // never published
  ASSERT_TRUE(f.server->Checkpoint().ok());
  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_EQ(stats.checkpoint_entries, 1u);
  EXPECT_EQ(stats.redo_records, 0u);
  EXPECT_TRUE(f.server->Get(f.uid, "kept").ok());
}

TEST(RecoveryTest, AdoptTabletFromDeadServer) {
  dfs::DfsOptions dfs_options;
  dfs_options.num_nodes = 3;
  dfs::Dfs shared_dfs(dfs_options);
  coord::CoordinationService coord;

  TabletServerOptions opt0;
  opt0.server_id = 0;
  TabletServer dead(opt0, &shared_dfs, &coord);
  ASSERT_TRUE(dead.Start().ok());
  TabletDescriptor d = Descriptor();
  ASSERT_TRUE(dead.OpenTablet(d).ok());
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(dead.Put(d.uid(), "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(dead.Checkpoint().ok());
  for (int i = 40; i < 50; i++) {
    ASSERT_TRUE(dead.Put(d.uid(), "k" + std::to_string(i), "v").ok());
  }
  dead.Crash();  // permanent failure

  TabletServerOptions opt1;
  opt1.server_id = 1;
  TabletServer heir(opt1, &shared_dfs, &coord);
  ASSERT_TRUE(heir.Start().ok());
  ASSERT_TRUE(heir.AdoptTablet(d, /*dead_instance=*/0).ok());
  // Checkpointed AND tail records are all served by the heir, reading the
  // dead server's log from the shared DFS.
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(heir.Get(d.uid(), "k" + std::to_string(i)).ok()) << i;
  }
  // New writes go to the heir's own log.
  ASSERT_TRUE(heir.Put(d.uid(), "new", "v").ok());
  EXPECT_TRUE(heir.Get(d.uid(), "new").ok());
}

/// Every file under `server`'s checkpoint directory, with its bytes.
std::map<std::string, std::string> CheckpointFiles(dfs::Dfs* dfs,
                                                   TabletServer* server) {
  std::map<std::string, std::string> files;
  auto paths = dfs->List(server->checkpoint_dir() + "/");
  EXPECT_TRUE(paths.ok());
  if (!paths.ok()) return files;
  for (const std::string& path : *paths) {
    auto file = dfs->Open(path, 0);
    EXPECT_TRUE(file.ok()) << path;
    if (!file.ok()) continue;
    auto bytes = (*file)->Read(0, (*file)->Size());
    EXPECT_TRUE(bytes.ok()) << path;
    if (bytes.ok()) files[path] = *bytes;
  }
  return files;
}

/// Replaces the DFS file at `path` with `bytes`.
void RewriteFile(dfs::Dfs* dfs, const std::string& path,
                 const std::string& bytes) {
  ASSERT_TRUE(dfs->Delete(path).ok());
  auto file = dfs->Create(path, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(Slice(bytes)).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

TEST(RecoveryTest, CorruptCheckpointFailsStart) {
  ServerFixture f;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(f.server->Checkpoint().ok());
  auto files = CheckpointFiles(f.dfs.get(), f.server.get());
  ASSERT_EQ(files.size(), 1u);
  auto& [path, bytes] = *files.begin();
  bytes[bytes.size() / 2] ^= 0x80;  // inside the tablet's index section
  RewriteFile(f.dfs.get(), path, bytes);
  f.server->Crash();
  // The whole file is rejected; no part of it loads.
  EXPECT_TRUE(f.server->Start().IsCorruption());

  // So is a file in the earlier meta-file format ("LBCKP" magic, no
  // sections) whose checksum holds.
  std::string old_format;
  PutFixed64(&old_format, 0x4c42434b50ull);
  PutFixed32(&old_format, 0);  // log position
  PutFixed64(&old_format, 0);
  PutFixed64(&old_format, 1);  // next LSN
  PutFixed32(&old_format, 0);  // tablets
  PutFixed32(&old_format, crc32c::Mask(crc32c::Value(old_format.data(),
                                                     old_format.size())));
  RewriteFile(f.dfs.get(), path, old_format);
  f.server->Crash();
  EXPECT_TRUE(f.server->Start().IsCorruption());
}

TEST(RecoveryTest, PreviousFormatMagicFailsStart) {
  ServerFixture f;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(f.server->Checkpoint().ok());
  auto files = CheckpointFiles(f.dfs.get(), f.server.get());
  ASSERT_EQ(files.size(), 1u);
  auto& [path, bytes] = *files.begin();
  // The fixed-width section layout's magic ("LBCKP2") over this file, with
  // a checksum that holds.
  EncodeFixed64(bytes.data(), 0x4c42434b5032ull);
  bytes.resize(bytes.size() - 4);
  PutFixed32(&bytes, crc32c::Mask(crc32c::Value(bytes.data(), bytes.size())));
  RewriteFile(f.dfs.get(), path, bytes);
  f.server->Crash();
  EXPECT_TRUE(f.server->Start().IsCorruption());
}

TEST(RecoveryTest, MissingCheckpointRedoesWholeLog) {
  ServerFixture f;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(f.server->Checkpoint().ok());
  auto files = CheckpointFiles(f.dfs.get(), f.server.get());
  ASSERT_EQ(files.size(), 1u);
  ASSERT_TRUE(f.dfs->Delete(files.begin()->first).ok());
  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_FALSE(stats.loaded_checkpoint);
  EXPECT_EQ(stats.checkpoint_entries, 0u);
  EXPECT_EQ(stats.redo_records, 100u);
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(f.server->Get(f.uid, "k" + std::to_string(i)).ok()) << i;
  }
}

/// Virtual time of one Checkpoint() on a fresh server hosting `tablets`
/// tablets of 50 rows each; `files` receives its checkpoint directory.
sim::VirtualTime TimedCheckpoint(int tablets,
                                 std::map<std::string, std::string>* files) {
  ServerFixture f;
  for (int t = 0; t < tablets; t++) {
    TabletDescriptor d = Descriptor(/*table=*/t + 1);
    EXPECT_TRUE(f.server->OpenTablet(d).ok());
    for (int i = 0; i < 50; i++) {
      EXPECT_TRUE(f.server->Put(d.uid(), "k" + std::to_string(i), "v").ok());
    }
  }
  sim::SimContext ctx;
  {
    sim::SimContext::Scope scope(&ctx);
    EXPECT_TRUE(f.server->Checkpoint().ok());
  }
  *files = CheckpointFiles(f.dfs.get(), f.server.get());
  return ctx.now();
}

TEST(RecoveryTest, CheckpointIsOneFileWhateverTheTabletCount) {
  std::map<std::string, std::string> one_files, four_files;
  sim::VirtualTime one = TimedCheckpoint(1, &one_files);
  sim::VirtualTime four = TimedCheckpoint(4, &four_files);
  EXPECT_EQ(one_files.size(), 1u);
  EXPECT_EQ(four_files.size(), 1u);
  // Every file starts a DFS block whose first write positions each replica
  // disk; three more tablets must not add one.
  sim::DiskParams disk;
  EXPECT_GT(one, 0);
  EXPECT_LT(four - one, disk.seek_us + disk.rotational_us);
}

TEST(RecoveryTest, CheckpointForgetsTabletsThatLeft) {
  ServerFixture f;
  TabletDescriptor left = Descriptor(/*table=*/2);
  ASSERT_TRUE(f.server->OpenTablet(left).ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "kept" + std::to_string(i), "v").ok());
    ASSERT_TRUE(
        f.server->Put(left.uid(), "left" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(f.server->Checkpoint().ok());
  ASSERT_TRUE(f.server->CloseTablet(left.uid()).ok());
  ASSERT_TRUE(f.server->Checkpoint().ok());

  auto files = CheckpointFiles(f.dfs.get(), f.server.get());
  ASSERT_FALSE(files.empty());
  bool kept_found = false;
  for (const auto& [path, bytes] : files) {
    EXPECT_EQ(bytes.find("left"), std::string::npos) << path;
    kept_found |= bytes.find("kept") != std::string::npos;
  }
  EXPECT_TRUE(kept_found);

  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_EQ(stats.checkpoint_entries, 20u);
  EXPECT_EQ(stats.redo_records, 0u);
  EXPECT_NE(f.server->FindTablet(f.uid), nullptr);
  EXPECT_EQ(f.server->FindTablet(left.uid()), nullptr);
  EXPECT_TRUE(f.server->Get(f.uid, "kept19").ok());
}

// ---------------------------------------------------------------------------
// Log compaction
// ---------------------------------------------------------------------------

TEST(CompactionTest, DropsObsoleteVersionsWhenCapped) {
  ServerFixture f;
  for (int v = 0; v < 10; v++) {
    ASSERT_TRUE(f.server->Put(f.uid, "multi", "v" + std::to_string(v)).ok());
  }
  CompactionOptions options;
  options.max_versions_per_key = 2;
  CompactionStats stats;
  ASSERT_TRUE(f.server->CompactLog(options, &stats).ok());
  EXPECT_EQ(stats.input_records, 10u);
  EXPECT_EQ(stats.output_records, 2u);
  EXPECT_EQ(stats.dropped_obsolete, 8u);
  EXPECT_EQ(f.server->Get(f.uid, "multi")->value, "v9");
}

TEST(CompactionTest, DropsInvalidatedEntries) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "dead", "v1").ok());
  ASSERT_TRUE(f.server->Put(f.uid, "dead", "v2").ok());
  ASSERT_TRUE(f.server->Put(f.uid, "alive", "v").ok());
  ASSERT_TRUE(f.server->Delete(f.uid, "dead").ok());
  CompactionStats stats;
  ASSERT_TRUE(f.server->CompactLog({}, &stats).ok());
  EXPECT_EQ(stats.dropped_invalidated, 2u);
  EXPECT_EQ(stats.output_records, 1u);
  EXPECT_TRUE(f.server->Get(f.uid, "dead").status().IsNotFound());
  EXPECT_EQ(f.server->Get(f.uid, "alive")->value, "v");
}

TEST(CompactionTest, ReadsWorkAfterInputReclamation) {
  ServerFixture f;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i),
                              "value" + std::to_string(i))
                    .ok());
  }
  log::LogReader* reader = f.server->ReaderFor(f.server->server_id());
  size_t segments_before = reader->ListSegments()->size();
  CompactionStats stats;
  ASSERT_TRUE(f.server->CompactLog({}, &stats).ok());
  EXPECT_EQ(stats.output_records, 200u);
  // All keys readable through the swung pointers into sorted segments.
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(f.server->Get(f.uid, "k" + std::to_string(i))->value,
              "value" + std::to_string(i))
        << i;
  }
  auto segments_after = reader->ListSegments();
  // Inputs deleted; outputs live in the generation lane.
  bool has_high_lane = false;
  for (uint32_t seg : *segments_after) {
    if ((seg >> 24) > 0) has_high_lane = true;
  }
  EXPECT_TRUE(has_high_lane);
  EXPECT_LE(segments_after->size(), segments_before + 1);
}

TEST(CompactionTest, SortedOutputClustersKeyRanges) {
  ServerFixture f;
  Random rnd(9);
  for (int i = 0; i < 300; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", static_cast<int>(rnd.Uniform(100000)));
    ASSERT_TRUE(f.server->Put(f.uid, key, "v").ok());
  }
  ASSERT_TRUE(f.server->CompactLog().ok());
  // After compaction, scanning a range yields monotonically increasing log
  // offsets (clustered data) — the property behind Figure 10.
  auto rows = ScanRows(f.server.get(), f.uid, "", "");
  ASSERT_TRUE(rows.ok());
  Tablet* tablet = f.server->FindTablet(f.uid);
  uint64_t last_offset = 0;
  uint32_t segment = 0;
  std::string last_key;
  for (const auto& row : *rows) {
    auto entry = tablet->index()->GetAsOf(Slice(row.key), index::kLatest);
    ASSERT_TRUE(entry.ok());
    if (segment == entry->ptr.segment) {
      EXPECT_GT(entry->ptr.offset, last_offset) << row.key;
    }
    segment = entry->ptr.segment;
    last_offset = entry->ptr.offset;
    if (!last_key.empty()) EXPECT_GT(row.key, last_key);
    last_key = row.key;
  }
}

TEST(CompactionTest, ServesNewWritesDuringAndAfter) {
  ServerFixture f;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "old" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(f.server->CompactLog().ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "new" + std::to_string(i), "v").ok());
  }
  // A second compaction folds the previous outputs + tail together.
  CompactionStats stats;
  ASSERT_TRUE(f.server->CompactLog({}, &stats).ok());
  EXPECT_EQ(stats.output_records, 100u);
  EXPECT_TRUE(f.server->Get(f.uid, "old0").ok());
  EXPECT_TRUE(f.server->Get(f.uid, "new49").ok());
}

TEST(CompactionTest, RecoveryAfterCompactionUsesItsCheckpoint) {
  ServerFixture f;
  for (int i = 0; i < 80; i++) {
    ASSERT_TRUE(f.server->Put(f.uid, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(f.server->CompactLog().ok());
  ASSERT_TRUE(f.server->Put(f.uid, "after", "v").ok());
  f.server->Crash();
  RecoveryStats stats;
  ASSERT_TRUE(f.server->Start(&stats).ok());
  EXPECT_TRUE(stats.loaded_checkpoint);
  EXPECT_EQ(stats.redo_records, 1u);  // only the post-compaction write
  for (int i = 0; i < 80; i++) {
    EXPECT_TRUE(f.server->Get(f.uid, "k" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(f.server->Get(f.uid, "after").ok());
}

TEST(CompactionTest, DeleteDuringCompactionWindowNotResurrected) {
  ServerFixture f;
  ASSERT_TRUE(f.server->Put(f.uid, "victim", "v").ok());
  ASSERT_TRUE(f.server->CompactLog().ok());
  // Delete after compaction; then compact again — the old version must not
  // come back (UpdateIfPresent never re-creates removed entries).
  ASSERT_TRUE(f.server->Delete(f.uid, "victim").ok());
  ASSERT_TRUE(f.server->CompactLog().ok());
  EXPECT_TRUE(f.server->Get(f.uid, "victim").status().IsNotFound());
}

}  // namespace
}  // namespace logbase::tablet

// Tests for the group-commit write path: LogWriter coalescing boundaries
// (window, caps, tickets, Open, ack mode), pipelined quorum-ack replication
// at the DFS sync layer, and recovery of a quorum-durable-but-not-fully-
// replicated log tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/dfs/dfs.h"
#include "src/log/log_reader.h"
#include "src/log/log_writer.h"
#include "src/sim/sim_context.h"
#include "src/util/io.h"

namespace logbase::log {
namespace {

LogRecord MakeData(const std::string& key, const std::string& value,
                   uint64_t ts) {
  LogRecord record;
  record.type = LogRecordType::kData;
  record.key.table_id = 1;
  record.key.tablet_id = 7;
  record.row.primary_key = key;
  record.row.timestamp = ts;
  record.value = value;
  record.commit_ts = ts;
  return record;
}

std::vector<LogRecord> One(const std::string& key, uint64_t ts) {
  std::vector<LogRecord> v;
  v.push_back(MakeData(key, "v" + key, ts));
  return v;
}

// ---------------------------------------------------------------------------
// Coalescing boundaries.
// ---------------------------------------------------------------------------

TEST(GroupCommitTest, WaitCoalescesPendingSubmissions) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log", /*instance=*/5);
  ASSERT_TRUE(writer.Open().ok());

  // Three writers submit before anyone waits: one open batch.
  std::vector<LogRecord> a = One("a", 1);
  std::vector<LogRecord> b;
  b.push_back(MakeData("b", "2", 2));
  b.push_back(MakeData("c", "3", 3));
  std::vector<LogRecord> c = One("d", 4);
  auto ta = writer.Submit(&a);
  auto tb = writer.Submit(&b);
  auto tc = writer.Submit(&c);
  ASSERT_TRUE(ta.ok() && tb.ok() && tc.ok());
  EXPECT_EQ(writer.pending_records(), 4u);
  EXPECT_EQ(ta->batch_seq, tb->batch_seq);
  EXPECT_EQ(tb->batch_seq, tc->batch_seq);

  // The first waiter is the group-commit leader: it flushes for everyone.
  std::vector<LogPtr> pa, pb, pc;
  ASSERT_TRUE(writer.Wait(*tb, &pb).ok());
  EXPECT_EQ(writer.pending_records(), 0u);
  ASSERT_TRUE(writer.Wait(*ta, &pa).ok());
  ASSERT_TRUE(writer.Wait(*tc, &pc).ok());
  ASSERT_EQ(pa.size(), 1u);
  ASSERT_EQ(pb.size(), 2u);
  ASSERT_EQ(pc.size(), 1u);

  // One continuous batch: record frames back to back, in submit order.
  EXPECT_EQ(pb[0].offset, pa[0].offset + pa[0].size);
  EXPECT_EQ(pb[1].offset, pb[0].offset + pb[0].size);
  EXPECT_EQ(pc[0].offset, pb[1].offset + pb[1].size);

  // Ticket pointers locate exactly the submitter's own records, and LSNs
  // run in submit order.
  LogReader reader(&fs, "/log", 5);
  auto ra = reader.Read(pa[0]);
  auto rb = reader.Read(pb[1]);
  auto rc = reader.Read(pc[0]);
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  EXPECT_EQ(ra->row.primary_key, "a");
  EXPECT_EQ(rb->row.primary_key, "c");
  EXPECT_EQ(rc->row.primary_key, "d");
  EXPECT_EQ(ra->key.lsn, 1u);
  EXPECT_EQ(rb->key.lsn, 3u);
  EXPECT_EQ(rc->key.lsn, 4u);
}

TEST(GroupCommitTest, RecordCapSealsTheBatch) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());

  constexpr int kCap = static_cast<int>(kMaxBatchRecords);
  constexpr int kRecords = 2 * kCap + 1;
  std::vector<Result<AppendTicket>> tickets;
  for (int i = 0; i < kRecords; i++) {
    std::vector<LogRecord> r = One("k" + std::to_string(i), i + 1);
    tickets.push_back(writer.Submit(&r));
    ASSERT_TRUE(tickets.back().ok());
  }
  // Seals at the cap and at twice the cap; the last record sits in the
  // open batch.
  EXPECT_EQ(writer.pending_records(), 1u);
  EXPECT_EQ(tickets[0]->batch_seq, tickets[kCap - 1]->batch_seq);
  EXPECT_NE(tickets[kCap - 1]->batch_seq, tickets[kCap]->batch_seq);

  // Tickets of already-flushed batches still collect their pointers.
  for (int i = 0; i < kRecords; i++) {
    std::vector<LogPtr> ptrs;
    ASSERT_TRUE(writer.Wait(*tickets[i], &ptrs).ok());
    ASSERT_EQ(ptrs.size(), 1u);
    LogReader reader(&fs, "/log", 0);
    auto r = reader.Read(ptrs[0]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->row.primary_key, "k" + std::to_string(i));
    EXPECT_EQ(r->key.lsn, static_cast<uint64_t>(i + 1));
  }
}

TEST(GroupCommitTest, ByteCapSealsTheBatch) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());

  // Each frame holds a bit over half the byte cap.
  const size_t value_bytes = kMaxBatchBytes / 2 + 1;
  std::vector<LogRecord> big;
  big.push_back(MakeData("a", std::string(value_bytes, 'x'), 1));
  auto t1 = writer.Submit(&big);
  std::vector<LogRecord> big2;
  big2.push_back(MakeData("b", std::string(value_bytes, 'y'), 2));
  auto t2 = writer.Submit(&big2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  // The second submission would exceed the cap: the first batch sealed.
  EXPECT_NE(t1->batch_seq, t2->batch_seq);
  EXPECT_EQ(writer.pending_records(), 1u);
}

TEST(GroupCommitTest, WindowExpirySealsOnNextSubmit) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  MemFileSystem fs;
  GroupCommitOptions qo;
  qo.window_us = 200;
  LogWriter writer(&fs, "/log", 0, 64ull << 20, qo);
  ASSERT_TRUE(writer.Open().ok());

  std::vector<LogRecord> r1 = One("a", 1);
  auto t1 = writer.Submit(&r1);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(writer.pending_records(), 1u);

  ctx.AdvanceTo(300);  // past the window
  std::vector<LogRecord> r2 = One("b", 2);
  auto t2 = writer.Submit(&r2);
  ASSERT_TRUE(t2.ok());
  // r1's batch flushed on arrival of r2; only r2 is pending.
  EXPECT_EQ(writer.pending_records(), 1u);
  EXPECT_NE(t1->batch_seq, t2->batch_seq);

  std::vector<LogPtr> p1, p2;
  ASSERT_TRUE(writer.Wait(*t1, &p1).ok());
  ASSERT_TRUE(writer.Wait(*t2, &p2).ok());
  ASSERT_EQ(p1.size(), 1u);
  ASSERT_EQ(p2.size(), 1u);
}

TEST(GroupCommitTest, WindowZeroDisablesCoalescing) {
  MemFileSystem fs;
  GroupCommitOptions qo;
  qo.window_us = 0;
  LogWriter writer(&fs, "/log", 0, 64ull << 20, qo);
  ASSERT_TRUE(writer.Open().ok());

  std::vector<LogRecord> r1 = One("a", 1);
  auto t1 = writer.Submit(&r1);
  std::vector<LogRecord> r2 = One("b", 2);
  auto t2 = writer.Submit(&r2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_NE(t1->batch_seq, t2->batch_seq);
}

TEST(GroupCommitTest, TicketsAreSingleUse) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log");
  ASSERT_TRUE(writer.Open().ok());

  std::vector<LogRecord> r = One("a", 1);
  auto t = writer.Submit(&r);
  ASSERT_TRUE(t.ok());
  std::vector<LogPtr> ptrs;
  ASSERT_TRUE(writer.Wait(*t, &ptrs).ok());
  EXPECT_TRUE(writer.Wait(*t, &ptrs).IsInvalidArgument());

  // An empty submission yields an invalid ticket; waiting on it is a no-op.
  std::vector<LogRecord> empty;
  auto te = writer.Submit(&empty);
  ASSERT_TRUE(te.ok());
  EXPECT_FALSE(te->valid());
  std::vector<LogPtr> none;
  EXPECT_TRUE(writer.Wait(*te, &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(GroupCommitTest, ScannerSeesSubmitOrderAcrossBatches) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());

  // Submitted without waiting, so the record cap alone splits them into
  // three batches.
  constexpr int kRecords = 2 * static_cast<int>(kMaxBatchRecords) + 1;
  for (int i = 0; i < kRecords; i++) {
    std::vector<LogRecord> r;
    r.push_back(MakeData("k" + std::to_string(i), "v", i + 1));
    ASSERT_TRUE(writer.Submit(&r).ok());
  }
  ASSERT_TRUE(writer.Flush().ok());

  LogReader reader(&fs, "/log", 0);
  auto scanner = reader.NewScanner();
  ASSERT_TRUE(scanner.ok());
  uint64_t expected_lsn = 1;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    EXPECT_EQ((*scanner)->record().key.lsn, expected_lsn);
    EXPECT_EQ((*scanner)->record().row.primary_key,
              "k" + std::to_string(expected_lsn - 1));
    expected_lsn++;
  }
  EXPECT_TRUE((*scanner)->status().ok());
  EXPECT_EQ(expected_lsn, static_cast<uint64_t>(kRecords + 1));
}

TEST(GroupCommitTest, OpenDropsNeverWaitedSubmissions) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());

  // Submitted but never waited: the records sit in the open batch when the
  // writer restarts, so no caller was ever told they were durable.
  std::vector<LogRecord> lost = One("lost", 1);
  auto stale = writer.Submit(&lost);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(writer.Open(/*first_lsn=*/1).ok());
  EXPECT_EQ(writer.pending_records(), 0u);

  ASSERT_TRUE(writer.Append(MakeData("kept", "v", 2)).ok());
  LogReader reader(&fs, "/log", 0);
  auto scanner = reader.NewScanner();
  ASSERT_TRUE(scanner.ok());
  std::vector<std::string> keys;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    keys.push_back((*scanner)->record().row.primary_key);
  }
  EXPECT_TRUE((*scanner)->status().ok());
  EXPECT_EQ(keys, std::vector<std::string>{"kept"});

  std::vector<LogPtr> ptrs;
  EXPECT_TRUE(writer.Wait(*stale, &ptrs).IsInvalidArgument());
}

TEST(GroupCommitTest, BatchAcksAtStrongestMode) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  dfs::DfsOptions options;
  options.num_nodes = 3;
  dfs::Dfs dfs(options);
  dfs::DfsFileSystem fs(&dfs, /*client_node=*/0);
  constexpr sim::VirtualTime kStallUs = 50000;
  dfs.data_node(2)->disk()->set_stall_us(kStallUs);

  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());
  // Both submissions arrive at the same instant: one batch.
  std::vector<LogRecord> q = One("q", 1);
  std::vector<LogRecord> a = One("a", 2);
  auto tq = writer.Submit(&q, AckMode::kQuorum);
  auto ta = writer.Submit(&a, AckMode::kAll);
  ASSERT_TRUE(tq.ok() && ta.ok());
  ASSERT_EQ(tq->batch_seq, ta->batch_seq);

  // The kAll submission makes the whole batch wait for the stalled
  // replica, so even the kQuorum waiter's ack lands after the stall.
  std::vector<LogPtr> ptrs;
  ASSERT_TRUE(writer.Wait(*tq, &ptrs).ok());
  EXPECT_GE(ctx.now(), kStallUs);
  ASSERT_TRUE(writer.Wait(*ta, &ptrs).ok());
  EXPECT_GE(ctx.now(), kStallUs);
}

// ---------------------------------------------------------------------------
// Pipelined quorum-ack replication (DFS sync layer).
// ---------------------------------------------------------------------------

TEST(PipelinedSyncTest, PipelineDoesNotBlockOnAcks) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  dfs::DfsOptions options;
  options.num_nodes = 3;
  dfs::Dfs dfs(options);

  auto file = dfs.Create("/pipelined", 0);
  ASSERT_TRUE(file.ok());
  uint64_t last_ack = 0;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE((*file)->Append(Slice(std::string(64 << 10, 'x'))).ok());
    uint64_t ack_us = 0;
    ASSERT_TRUE((*file)->SyncWith(AckMode::kQuorum, &ack_us).ok());
    // Pipelining: the caller's clock stops at its own NIC push; the
    // replication ack is still outstanding (in the future).
    EXPECT_LT(static_cast<uint64_t>(ctx.now()), ack_us);
    last_ack = std::max(last_ack, ack_us);
  }
  // The barrier collects every outstanding ack.
  ASSERT_TRUE((*file)->WaitForAcks().ok());
  EXPECT_GE(static_cast<uint64_t>(ctx.now()), last_ack);
  ASSERT_TRUE((*file)->Close().ok());
}

TEST(PipelinedSyncTest, QuorumAckExcludesStalledStraggler) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  dfs::DfsOptions options;
  options.num_nodes = 3;
  dfs::Dfs dfs(options);
  constexpr sim::VirtualTime kStallUs = 50000;
  dfs.data_node(2)->disk()->set_stall_us(kStallUs);

  // Quorum ack: the stalled replica is off the critical path — the ack
  // lands well before the stall ends, so the straggler finishes at least
  // half a stall after it.
  {
    auto file = dfs.Create("/quorum", 0);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'x'))).ok());
    uint64_t ack_us = 0;
    ASSERT_TRUE((*file)->SyncWith(AckMode::kQuorum, &ack_us).ok());
    EXPECT_LT(ack_us, static_cast<uint64_t>(kStallUs / 2));
    ASSERT_TRUE((*file)->Close().ok());
  }
  // Full ack: the straggler gates the ack.
  {
    auto file = dfs.Create("/all", 0);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'x'))).ok());
    uint64_t ack_us = 0;
    ASSERT_TRUE((*file)->SyncWith(AckMode::kAll, &ack_us).ok());
    EXPECT_GE(ack_us, static_cast<uint64_t>(kStallUs));
    ASSERT_TRUE((*file)->Close().ok());
  }
}

TEST(PipelinedSyncTest, ConcurrentSyncsStopAtTheirOwnPush) {
  // Five writers sync the one log file at the same virtual time while the
  // remote replicas' disks lag: each caller's clock stops at its own NIC
  // push, never at the ack of a sync issued before it.
  dfs::DfsOptions options;
  options.num_nodes = 3;
  dfs::Dfs dfs(options);
  const sim::NetworkParams& net = dfs.network()->params();
  auto file = dfs.Create("/shared", 0);
  ASSERT_TRUE(file.ok());
  {
    sim::SimContext setup;
    sim::SimContext::Scope scope(&setup);
    ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'x'))).ok());
    ASSERT_TRUE((*file)->SyncWith(AckMode::kQuorum, nullptr).ok());
  }
  dfs.data_node(1)->disk()->set_stall_us(2000);
  dfs.data_node(2)->disk()->set_stall_us(2000);

  constexpr sim::VirtualTime kStart = 1000000;
  constexpr int kWriters = 5;
  std::vector<sim::VirtualTime> stopped;
  std::vector<uint64_t> acks;
  for (int i = 0; i < kWriters; i++) {
    sim::SimContext ctx(kStart);
    sim::SimContext::Scope scope(&ctx);
    ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'y'))).ok());
    uint64_t ack_us = 0;
    ASSERT_TRUE((*file)->SyncWith(AckMode::kQuorum, &ack_us).ok());
    stopped.push_back(ctx.now());
    acks.push_back(ack_us);
  }
  const uint64_t first_ack = *std::min_element(acks.begin(), acks.end());
  for (int i = 0; i < kWriters; i++) {
    // One remote hop: one RPC overhead after the writer's NIC sent this
    // copy, behind the 1 KB copies queued ahead of it.
    EXPECT_LT(stopped[i], kStart + 2 * net.rpc_overhead_us) << i;
    EXPECT_LT(static_cast<uint64_t>(stopped[i]), first_ack) << i;
  }
  // The barrier still waits for the latest ack.
  sim::SimContext closer(kStart);
  sim::SimContext::Scope scope(&closer);
  ASSERT_TRUE((*file)->WaitForAcks().ok());
  EXPECT_EQ(static_cast<uint64_t>(closer.now()),
            *std::max_element(acks.begin(), acks.end()));
}

TEST(PipelinedSyncTest, LocalFirstQuorumAckTakesOneRemoteHop) {
  // The writer's own node holds the first replica, and a log sync sends
  // every remote copy from the writer at the sync's start: the quorum's
  // second copy pays one RPC overhead and its wire time, so on an idle
  // cluster a 1 KB quorum sync acks within two RPC overheads.
  dfs::DfsOptions options;
  options.num_nodes = 3;
  dfs::Dfs dfs(options);
  const sim::NetworkParams& net = dfs.network()->params();
  auto file = dfs.Create("/idle", 0);
  ASSERT_TRUE(file.ok());
  {
    // Open the block and every replica's write stream first, so the timed
    // sync pays no disk positioning.
    sim::SimContext setup;
    sim::SimContext::Scope scope(&setup);
    ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'x'))).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  constexpr sim::VirtualTime kStart = 1000000;
  sim::SimContext ctx(kStart);
  sim::SimContext::Scope scope(&ctx);
  ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'y'))).ok());
  uint64_t ack_us = 0;
  ASSERT_TRUE((*file)->SyncWith(AckMode::kQuorum, &ack_us).ok());
  EXPECT_LT(ack_us, static_cast<uint64_t>(kStart + 2 * net.rpc_overhead_us));
}

TEST(PipelinedSyncTest, FourWayQuorumAcksAfterOneRemoteHop) {
  // Four copies, a quorum of three. A chain would start the third copy two
  // hops after the sync; the fan-out starts every copy at the sync, the
  // writer's NIC sending the remote ones back to back, so the quorum acks
  // one RPC overhead and two 1 KB wire times after the sync.
  dfs::DfsOptions options;
  options.num_nodes = 4;
  options.replication = 4;
  dfs::Dfs dfs(options);
  const sim::NetworkParams& net = dfs.network()->params();
  auto file = dfs.Create("/four", 0);
  ASSERT_TRUE(file.ok());
  {
    // Open the block and every replica's write stream first.
    sim::SimContext setup;
    sim::SimContext::Scope scope(&setup);
    ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'x'))).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  constexpr sim::VirtualTime kStart = 1000000;
  sim::SimContext ctx(kStart);
  sim::SimContext::Scope scope(&ctx);
  ASSERT_TRUE((*file)->Append(Slice(std::string(1024, 'y'))).ok());
  uint64_t ack_us = 0;
  ASSERT_TRUE((*file)->SyncWith(AckMode::kQuorum, &ack_us).ok());
  EXPECT_LT(ack_us, static_cast<uint64_t>(kStart + 2 * net.rpc_overhead_us));
}

TEST(PipelinedSyncTest, MegabyteBatchWaitsForItsQuorumAck) {
  // A batch past the 1 MB streaming chunk is pushed by the Append that
  // crosses it; the sync after it still reports that push's ack, so the
  // writer waits until a quorum of disks holds the megabyte.
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  dfs::DfsOptions options;
  options.num_nodes = 3;
  dfs::Dfs dfs(options);
  dfs::DfsFileSystem fs(&dfs, /*client_node=*/0);
  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append(MakeData("small", "v", 1)).ok());

  const sim::VirtualTime before = ctx.now();
  ASSERT_TRUE(
      writer.Append(MakeData("big", std::string(1 << 20, 'x'), 2)).ok());
  const sim::DiskParams& disk = dfs.data_node(0)->disk()->params();
  const auto disk_write_us = static_cast<sim::VirtualTime>(
      (1 << 20) / disk.bandwidth_mb_per_s);
  EXPECT_GE(ctx.now() - before, disk_write_us);
}

// ---------------------------------------------------------------------------
// Quorum-durable tail recovery.
// ---------------------------------------------------------------------------

TEST(QuorumTailTest, TailSurvivesReplicaLossAndHealsToFullWidth) {
  dfs::DfsOptions options;
  options.num_nodes = 3;
  dfs::Dfs dfs(options);
  dfs::DfsFileSystem fs(&dfs, /*client_node=*/0);

  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(writer.Append(MakeData("a" + std::to_string(i), "v", i + 1))
                    .ok());
  }

  // One log replica dies: the pipeline degrades, survivors keep acking
  // (quorum of the remaining width), and the tail keeps growing.
  dfs.KillDataNode(2);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        writer.Append(MakeData("b" + std::to_string(i), "v", 11 + i)).ok());
  }
  ASSERT_TRUE(writer.Flush().ok());

  // The scanner reads the whole tail from the surviving replicas —
  // including the records the dead replica never saw.
  auto count_records = [&]() -> int {
    LogReader reader(&fs, "/log", 0);
    auto scanner = reader.NewScanner();
    if (!scanner.ok()) return -1;
    int n = 0;
    uint64_t expected_lsn = 1;
    for (; (*scanner)->Valid(); (*scanner)->Next()) {
      if ((*scanner)->record().key.lsn != expected_lsn) return -1;
      expected_lsn++;
      n++;
    }
    if (!(*scanner)->status().ok()) return -1;
    return n;
  };
  EXPECT_EQ(count_records(), 20);

  // The stale replica comes back (missing the tail); the heal sweep
  // re-replicates to full width (invariant I3) and reaches a fixpoint.
  dfs.RestartDataNode(2);
  auto healed = dfs.HealUnderReplicated();
  ASSERT_TRUE(healed.ok());
  EXPECT_GT(*healed, 0);
  auto again = dfs.HealUnderReplicated();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);

  // With width restored, losing a *different* replica must not lose the
  // tail: the healed copy serves it.
  dfs.KillDataNode(1);
  EXPECT_EQ(count_records(), 20);
}

TEST(QuorumTailTest, TornBatchTailStopsCleanly) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append(MakeData("a", "1", 1)).ok());
  std::vector<LogRecord> batch;
  batch.push_back(MakeData("b", "2", 2));
  batch.push_back(MakeData("c", "3", 3));
  std::vector<LogPtr> ptrs;
  ASSERT_TRUE(writer.AppendBatch(&batch, &ptrs).ok());

  // Truncate inside the second batch's record frames: the batch is torn
  // (e.g. a replica missing the end of a quorum-acked append). The scanner
  // must stop cleanly BEFORE the batch header — a torn batch is invisible
  // as a unit, never half-delivered.
  const std::string segment = SegmentFileName("/log", 1);
  auto raf = fs.NewRandomAccessFile(segment);
  ASSERT_TRUE(raf.ok());
  auto data = (*raf)->Read(0, (*raf)->Size());
  ASSERT_TRUE(data.ok());
  std::string truncated = data->substr(0, ptrs[1].offset + 3);
  auto wf = fs.NewWritableFile(segment);  // truncates the existing file
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append(Slice(truncated)).ok());

  LogReader reader(&fs, "/log", 0);
  auto scanner = reader.NewScanner();
  ASSERT_TRUE(scanner.ok());
  int n = 0;
  for (; (*scanner)->Valid(); (*scanner)->Next()) n++;
  EXPECT_TRUE((*scanner)->status().ok());
  EXPECT_EQ(n, 1);  // only the first (complete) batch
}

TEST(QuorumTailTest, BatchCrcCatchesCorruption) {
  MemFileSystem fs;
  LogWriter writer(&fs, "/log", 0);
  ASSERT_TRUE(writer.Open().ok());
  std::vector<LogRecord> batch;
  batch.push_back(MakeData("a", "1", 1));
  batch.push_back(MakeData("b", "2", 2));
  std::vector<LogPtr> ptrs;
  ASSERT_TRUE(writer.AppendBatch(&batch, &ptrs).ok());

  const std::string segment = SegmentFileName("/log", 1);
  auto raf = fs.NewRandomAccessFile(segment);
  ASSERT_TRUE(raf.ok());
  auto data = (*raf)->Read(0, (*raf)->Size());
  ASSERT_TRUE(data.ok());
  std::string corrupted = *data;
  corrupted[ptrs[1].offset + ptrs[1].size - 1] ^= 0x1;
  auto wf = fs.NewWritableFile(segment);  // truncates the existing file
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE((*wf)->Append(Slice(corrupted)).ok());

  LogReader reader(&fs, "/log", 0);
  auto scanner = reader.NewScanner();
  ASSERT_TRUE(scanner.ok());
  while ((*scanner)->Valid()) (*scanner)->Next();
  EXPECT_TRUE((*scanner)->status().IsCorruption());
}

}  // namespace
}  // namespace logbase::log

// Tests for MVOCC transactions (paper §3.7): snapshot isolation semantics
// (every ANSI anomaly except write skew prevented), validation under an
// all-or-nothing write-lock set, the commit's coordination cost, read-only
// fast path, the one-round cross-server commit, and crash atomicity.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "src/cluster/mini_cluster.h"
#include "src/dfs/dfs.h"
#include "src/index/multiversion_index.h"
#include "src/obs/metrics.h"
#include "src/replica/replica_server.h"
#include "src/sim/costs.h"
#include "src/sim/network_model.h"
#include "src/sim/sim_context.h"
#include "src/tablet/tablet_server.h"
#include "src/txn/lock_table.h"
#include "src/txn/transaction_manager.h"

namespace logbase::txn {
namespace {

using tablet::TabletDescriptor;
using tablet::TabletServer;
using tablet::TabletServerOptions;

/// The process-wide txn.* registry counter `name`; tests compare deltas.
uint64_t TxnCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name)->value();
}

struct TxnFixture {
  dfs::Dfs dfs{[] {
    dfs::DfsOptions o;
    o.num_nodes = 3;
    return o;
  }()};
  coord::CoordinationService coord;
  std::vector<std::unique_ptr<TabletServer>> servers;
  std::unique_ptr<TransactionManager> manager;
  std::string uid0, uid1;  // tablets on server 0 and server 1

  explicit TxnFixture(int num_servers = 2) {
    for (int i = 0; i < num_servers; i++) {
      TabletServerOptions options;
      options.server_id = i;
      servers.push_back(
          std::make_unique<TabletServer>(options, &dfs, &coord));
      EXPECT_TRUE(servers.back()->Start().ok());
    }
    TabletDescriptor d0;
    d0.table_id = 1;
    d0.range_id = 0;
    uid0 = d0.uid();
    EXPECT_TRUE(servers[0]->OpenTablet(d0).ok());
    if (num_servers > 1) {
      TabletDescriptor d1;
      d1.table_id = 1;
      d1.range_id = 1;
      uid1 = d1.uid();
      EXPECT_TRUE(servers[1]->OpenTablet(d1).ok());
    }
    manager = std::make_unique<TransactionManager>(
        &coord, /*client_node=*/0, [this](const std::string& uid) {
          for (auto& server : servers) {
            if (server->FindTablet(uid) != nullptr) return server.get();
          }
          return static_cast<TabletServer*>(nullptr);
        });
  }
};

/// A transaction's data record made durable in the log with neither a
/// PREPARE nor a decision, never published.
Status AppendUncommitted(TabletServer* server, const std::string& uid,
                         const std::string& key, const std::string& value,
                         uint64_t txn_id, uint64_t ts) {
  auto batch = server->Submit({{uid, key, value}}, log::AckMode::kQuorum,
                              tablet::TxnStamp{txn_id, ts,
                                               tablet::TxnMark::kNone, {}});
  if (!batch.ok()) return batch.status();
  return server->Wait(&*batch);
}

/// A tablet server logging to a DFS of its own, hosting one tablet: two of
/// them append concurrently without sharing a disk, and a fault injected in
/// one's DFS fails only its appends.
struct SoloServer {
  dfs::Dfs dfs{[] {
    dfs::DfsOptions o;
    o.num_nodes = 3;
    return o;
  }()};
  std::unique_ptr<TabletServer> server;
  std::string uid;

  SoloServer(int server_id, coord::CoordinationService* coord) {
    TabletServerOptions options;
    options.server_id = server_id;
    server = std::make_unique<TabletServer>(options, &dfs, coord);
    EXPECT_TRUE(server->Start().ok());
    TabletDescriptor d;
    d.table_id = 1;
    d.range_id = server_id;
    uid = d.uid();
    EXPECT_TRUE(server->OpenTablet(d).ok());
  }

  void InjectIoErrors(int n) {
    for (int node = 0; node < 3; node++) dfs.data_node(node)->InjectIoErrors(n);
  }
};

TEST(TxnTest, CommitMakesWritesVisible) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "k", "committed").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), Transaction::State::kCommitted);
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "k")->value, "committed");
}

TEST(TxnTest, UncommittedWritesInvisible) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "k", "pending").ok());
  // Before commit: not visible to direct reads.
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").status().IsNotFound());
  f.manager->Abort(txn.get());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").status().IsNotFound());
  EXPECT_EQ(txn->state(), Transaction::State::kAborted);
}

TEST(TxnTest, ReadYourOwnWrites) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "k", "mine").ok());
  auto read = f.manager->Read(txn.get(), f.uid0, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "mine");
  f.manager->Abort(txn.get());
}

TEST(TxnTest, ReadOnlyAlwaysCommits) {
  TxnFixture f;
  const uint64_t committed = TxnCounter("txn.committed");
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v").ok());
  // Even with a concurrent writer on the same key.
  auto reader = f.manager->Begin();
  auto writer = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(writer.get(), f.uid0, "k", "v2").ok());
  ASSERT_TRUE(f.manager->Commit(writer.get()).ok());
  ASSERT_TRUE(f.manager->Read(reader.get(), f.uid0, "k").ok());
  EXPECT_TRUE(f.manager->Commit(reader.get()).ok());
  EXPECT_EQ(TxnCounter("txn.committed") - committed, 2u);
}

TEST(TxnTest, SnapshotReadsIgnoreLaterCommits) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "original").ok());
  auto old_txn = f.manager->Begin();  // snapshot fixed here

  auto writer = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(writer.get(), f.uid0, "k", "newer").ok());
  ASSERT_TRUE(f.manager->Commit(writer.get()).ok());

  // Fuzzy read prevented: old_txn still sees the original.
  auto read = f.manager->Read(old_txn.get(), f.uid0, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "original");
  EXPECT_TRUE(f.manager->Commit(old_txn.get()).ok());
}

TEST(TxnTest, LostUpdatePrevented) {
  TxnFixture f;
  const uint64_t validation_failures = TxnCounter("txn.validation_failures");
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "counter", "10").ok());
  auto t1 = f.manager->Begin();
  auto t2 = f.manager->Begin();
  // Both read-modify-write the same record concurrently.
  ASSERT_TRUE(f.manager->Read(t1.get(), f.uid0, "counter").ok());
  ASSERT_TRUE(f.manager->Read(t2.get(), f.uid0, "counter").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "counter", "11").ok());
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "counter", "11").ok());
  ASSERT_TRUE(f.manager->Commit(t1.get()).ok());
  // First committer wins; the second must abort on validation.
  Status second = f.manager->Commit(t2.get());
  EXPECT_TRUE(second.IsAborted());
  EXPECT_EQ(TxnCounter("txn.validation_failures") - validation_failures, 1u);
}

TEST(TxnTest, WriteSkewPermitted) {
  // SI's known anomaly (paper Figure 5): disjoint write sets with crossed
  // reads both commit.
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "x", "1").ok());
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "y", "1").ok());
  auto t1 = f.manager->Begin();
  auto t2 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Read(t1.get(), f.uid0, "x").ok());
  ASSERT_TRUE(f.manager->Read(t2.get(), f.uid0, "y").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "y", "0").ok());
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "x", "0").ok());
  EXPECT_TRUE(f.manager->Commit(t1.get()).ok());
  EXPECT_TRUE(f.manager->Commit(t2.get()).ok());  // write skew: allowed
}

TEST(TxnTest, DirtyWritePrevented) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "base").ok());
  auto t1 = f.manager->Begin();
  auto t2 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "k", "one").ok());
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "k", "two").ok());
  ASSERT_TRUE(f.manager->Commit(t1.get()).ok());
  EXPECT_TRUE(f.manager->Commit(t2.get()).IsAborted());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "k")->value, "one");
}

TEST(TxnTest, TransactionalDelete) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v").ok());
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Delete(txn.get(), f.uid0, "k").ok());
  // Own delete visible inside the transaction.
  EXPECT_TRUE(f.manager->Read(txn.get(), f.uid0, "k").status().IsNotFound());
  // Still visible outside until commit.
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").status().IsNotFound());
}

TEST(TxnTest, MultiServerTransactionCommitsAtomically) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "left", "L").ok());
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid1, "right", "R").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "left")->value, "L");
  EXPECT_EQ(f.servers[1]->Get(f.uid1, "right")->value, "R");
  // Same commit timestamp on both participants (global order, §3.7.1).
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "left")->timestamp,
            f.servers[1]->Get(f.uid1, "right")->timestamp);
}

TEST(TxnTest, MultiServerAbortLeavesNothingVisible) {
  TxnFixture f;
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "contended", "v0").ok());
  auto t1 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Read(t1.get(), f.uid0, "contended").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid0, "contended", "t1").ok());
  ASSERT_TRUE(f.manager->Write(t1.get(), f.uid1, "other", "t1").ok());
  // A conflicting single-server commit invalidates t1.
  auto t2 = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(t2.get(), f.uid0, "contended", "t2").ok());
  ASSERT_TRUE(f.manager->Commit(t2.get()).ok());
  EXPECT_TRUE(f.manager->Commit(t1.get()).IsAborted());
  // Neither of t1's writes landed.
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "contended")->value, "t2");
  EXPECT_TRUE(f.servers[1]->Get(f.uid1, "other").status().IsNotFound());
}

TEST(TxnTest, CommittedTransactionSurvivesCrashRecovery) {
  TxnFixture f;
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "durable", "yes").ok());
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "durable")->value, "yes");
}

TEST(TxnTest, CompactionDropsUncommittedTxnData) {
  // Simulate a transaction that persisted data records but crashed before
  // its COMMIT record: compaction must reclaim them.
  TxnFixture f(1);
  // No commit record will ever exist for txn 999.
  ASSERT_TRUE(AppendUncommitted(f.servers[0].get(), f.uid0, "orphan", "ghost",
                                /*txn_id=*/999, /*ts=*/12345)
                  .ok());
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "real", "v").ok());

  tablet::CompactionStats stats;
  ASSERT_TRUE(f.servers[0]->CompactLog({}, &stats).ok());
  EXPECT_EQ(stats.dropped_uncommitted, 1u);
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "orphan").status().IsNotFound());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "real").ok());
}

TEST(TxnTest, UncommittedTxnDataIgnoredByRecovery) {
  TxnFixture f(1);
  ASSERT_TRUE(AppendUncommitted(f.servers[0].get(), f.uid0, "phantom", "boo",
                                /*txn_id=*/777, /*ts=*/1)
                  .ok());
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "phantom").status().IsNotFound());
}

// The seal is checked before anything reaches the log: a commit on a
// sealed tablet fails without leaving a COMMIT for recovery to replay.
TEST(TxnTest, SealedTabletRefusesCommitBeforeLog) {
  TxnFixture f(1);
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "before", "v").ok());
  ASSERT_TRUE(f.servers[0]->SealTablet(f.uid0).ok());
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "k", "refused").ok());
  Status committed = f.manager->Commit(txn.get());
  EXPECT_TRUE(committed.IsUnavailable()) << committed.ToString();
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  ASSERT_TRUE(f.servers[0]->Get(f.uid0, "before").ok());  // tablet recovered
  EXPECT_TRUE(f.servers[0]->Get(f.uid0, "k").status().IsNotFound());
}

// A cross-server commit's round visits its participants in server-id order,
// whatever their addresses: when the round fails on the higher-id
// participant, the lower-id one has already appended its data records (and
// then its ABORT).
TEST(TxnTest, TwoPhaseCommitAppendsInServerIdOrder) {
  dfs::DfsOptions dfs_options;
  dfs_options.num_nodes = 3;
  // Each server logs to a DFS of its own, so disk errors fail only the
  // higher-id participant's appends.
  dfs::Dfs high_dfs(dfs_options), low_dfs(dfs_options);
  coord::CoordinationService coord;
  // The higher id sits at the lower address, so an order by address would
  // reach it first.
  std::array<std::optional<TabletServer>, 2> servers;
  for (int slot = 0; slot < 2; slot++) {
    TabletServerOptions options;
    options.server_id = 1 - slot;
    servers[slot].emplace(options, slot == 0 ? &high_dfs : &low_dfs, &coord);
    ASSERT_TRUE(servers[slot]->Start().ok());
  }
  TabletServer& high = *servers[0];
  TabletServer& low = *servers[1];
  ASSERT_LT(&high, &low);
  TabletDescriptor d_low, d_high;
  d_low.table_id = d_high.table_id = 1;
  d_high.range_id = 1;
  ASSERT_TRUE(low.OpenTablet(d_low).ok());
  ASSERT_TRUE(high.OpenTablet(d_high).ok());
  TransactionManager manager(&coord, /*client_node=*/0,
                             [&](const std::string& uid) {
                               return uid == d_low.uid() ? &low : &high;
                             });

  auto txn = manager.Begin();
  ASSERT_TRUE(manager.Write(txn.get(), d_low.uid(), "a", "x").ok());
  ASSERT_TRUE(manager.Write(txn.get(), d_high.uid(), "b", "y").ok());
  for (int node = 0; node < 3; node++) {
    high_dfs.data_node(node)->InjectIoErrors(1000);
  }
  const uint64_t low_log_before = low.log_bytes_written();
  EXPECT_FALSE(manager.Commit(txn.get()).ok());
  EXPECT_GT(low.log_bytes_written(), low_log_before);
  EXPECT_EQ(high.log_bytes_written(), 0u);
  EXPECT_TRUE(low.Get(d_low.uid(), "a").status().IsNotFound());
  for (int node = 0; node < 3; node++) {
    high_dfs.data_node(node)->InjectIoErrors(0);
  }
}

// When the lower-id participant fails the round, the commit issues nothing
// to the higher-id one, not even an ABORT: no participant after the first
// failure logs.
TEST(TxnTest, TwoPhaseRoundStopsAtFirstFailingParticipant) {
  coord::CoordinationService coord;
  SoloServer low(0, &coord), high(1, &coord);
  TransactionManager manager(&coord, /*client_node=*/0,
                             [&](const std::string& uid) {
                               return uid == low.uid ? low.server.get()
                                                     : high.server.get();
                             });
  sim::SimContext ctx(50000);
  sim::SimContext::Scope scope(&ctx);
  auto txn = manager.Begin();
  ASSERT_TRUE(manager.Write(txn.get(), low.uid, "a", "x").ok());
  ASSERT_TRUE(manager.Write(txn.get(), high.uid, "b", "y").ok());
  low.InjectIoErrors(1000);
  EXPECT_FALSE(manager.Commit(txn.get()).ok());
  EXPECT_EQ(high.server->log_bytes_written(), 0u);
  EXPECT_TRUE(high.server->Get(high.uid, "b").status().IsNotFound());
  low.InjectIoErrors(0);
}

/// Every record of `type` for the transaction stamped `commit_ts` in
/// `server`'s own log.
int CountMarks(TabletServer* server, log::LogRecordType type,
               uint64_t commit_ts) {
  auto scanner = server->ReaderFor(server->server_id())->NewScanner();
  EXPECT_TRUE(scanner.ok());
  int n = 0;
  for (; (*scanner)->Valid(); (*scanner)->Next()) {
    const log::LogRecord& record = (*scanner)->record();
    n += record.type == type && record.commit_ts == commit_ts;
  }
  EXPECT_TRUE((*scanner)->status().ok());
  return n;
}

// A cross-server commit is one concurrent round: it costs the coordination
// round trip, the slower participant's data + PREPARE append, then
// publication on each participant. The COMMIT records run off the critical
// path and still land in both logs.
TEST(TxnTest, CrossServerCommitTakesOnePrepareRound) {
  coord::CoordinationService coord;
  SoloServer low(0, &coord), high(1, &coord);
  TransactionManager manager(&coord, /*client_node=*/0,
                             [&](const std::string& uid) {
                               return uid == low.uid ? low.server.get()
                                                     : high.server.get();
                             });
  sim::SimContext ctx(50000);
  sim::VirtualTime start = 0;
  std::unique_ptr<Transaction> txn;
  {
    sim::SimContext::Scope scope(&ctx);
    txn = manager.Begin();
    ASSERT_TRUE(manager.Write(txn.get(), low.uid, "a", "1").ok());
    ASSERT_TRUE(manager.Write(txn.get(), high.uid, "b", "2").ok());
    start = ctx.now();
    ASSERT_TRUE(manager.Commit(txn.get()).ok());
  }

  // The same appends on identical servers. Every append of a round starts
  // where the round starts; the COMMIT round starts where the PREPARE
  // round ends and is never waited for. There is no network here, so the
  // round trip before the first round is the coordination service's
  // quorum time.
  coord::CoordinationService ref_coord;
  std::array<std::unique_ptr<SoloServer>, 2> refs = {
      std::make_unique<SoloServer>(0, &ref_coord),
      std::make_unique<SoloServer>(1, &ref_coord)};
  const std::array<tablet::WriteOp, 2> ops = {
      tablet::WriteOp{refs[0]->uid, "a", "1"},
      tablet::WriteOp{refs[1]->uid, "b", "2"}};
  std::array<tablet::MutationBatch, 2> data;
  auto round = [&](sim::VirtualTime at, tablet::TxnMark mark) {
    sim::VirtualTime end = at;
    for (int i = 0; i < 2; i++) {
      sim::SimContext clock(at);
      sim::SimContext::Scope scope(&clock);
      std::vector<tablet::WriteOp> batch_ops;
      if (mark == tablet::TxnMark::kPrepare) batch_ops.push_back(ops[i]);
      auto batch = refs[i]->server->Submit(
          std::move(batch_ops), log::AckMode::kQuorum,
          tablet::TxnStamp{txn->id(), txn->commit_ts(), mark, {0, 1}});
      EXPECT_TRUE(batch.ok());
      EXPECT_TRUE(refs[i]->server->Wait(&*batch).ok());
      if (mark == tablet::TxnMark::kPrepare) data[i] = std::move(*batch);
      end = std::max(end, clock.now());
    }
    return end;
  };
  const sim::VirtualTime prepare_round =
      start + sim::costs::kCoordinationUs + 2 * sim::costs::kIndexLookupUs;
  const sim::VirtualTime decided =
      round(prepare_round, tablet::TxnMark::kPrepare);
  const sim::VirtualTime commit_done = round(decided, tablet::TxnMark::kCommit);
  sim::SimContext publish(decided);
  {
    sim::SimContext::Scope scope(&publish);
    for (int i = 0; i < 2; i++) {
      ASSERT_TRUE(refs[i]->server->Publish(data[i]).ok());
    }
  }
  EXPECT_GT(decided, prepare_round);
  EXPECT_GT(commit_done, decided);
  EXPECT_GT(publish.now(), decided);
  EXPECT_EQ(ctx.now(), publish.now());
  EXPECT_EQ(low.server->Get(low.uid, "a")->value, "1");
  EXPECT_EQ(high.server->Get(high.uid, "b")->value, "2");
  for (TabletServer* server : {low.server.get(), high.server.get()}) {
    EXPECT_EQ(CountMarks(server, log::LogRecordType::kPrepare,
                         txn->commit_ts()),
              1);
    EXPECT_EQ(
        CountMarks(server, log::LogRecordType::kCommit, txn->commit_ts()), 1);
  }
}

// -- Crash atomicity of a cross-server commit ------------------------------
//
// The decision rule: a cross-server transaction is committed once every
// participant holds its durable PREPARE. The COMMIT and ABORT records only
// record that decision, off the commit's critical path, and whatever of
// them is lost a restarting participant recovers from the other logs.

/// Fails every block access on the fixture's three data nodes after the
/// next `after` ones, until ClearDiskFaults. Both servers log to those
/// nodes, and each log append writes one chunk to each of them, so `after`
/// counts appends: a cross-server commit appends server 0's PREPARE, server
/// 1's PREPARE, then server 0's and server 1's COMMIT.
void FailAppendsAfter(TxnFixture* f, int after) {
  for (int node = 0; node < 3; node++) {
    f->dfs.data_node(node)->InjectIoErrors(1000, after);
  }
}

void ClearDiskFaults(TxnFixture* f) {
  for (int node = 0; node < 3; node++) {
    f->dfs.data_node(node)->InjectIoErrors(0);
  }
}

/// Begins the transaction that writes the pair: "left" on server 0 and
/// "right" on server 1.
std::unique_ptr<Transaction> BeginPair(TxnFixture* f) {
  auto txn = f->manager->Begin();
  EXPECT_TRUE(f->manager->Write(txn.get(), f->uid0, "left", "L").ok());
  EXPECT_TRUE(f->manager->Write(txn.get(), f->uid1, "right", "R").ok());
  return txn;
}

/// No snapshot sees one side of the pair without the other: at every
/// snapshot both sides are visible at `commit_ts` when `committed`, and
/// neither side is visible otherwise.
void ExpectAtomicPair(TxnFixture* f, uint64_t commit_ts, bool committed) {
  for (uint64_t as_of : {commit_ts - 1, commit_ts, index::kLatest}) {
    auto left = f->servers[0]->Get(f->uid0, "left", as_of);
    auto right = f->servers[1]->Get(f->uid1, "right", as_of);
    const bool visible = committed && as_of >= commit_ts;
    EXPECT_EQ(left.ok(), visible) << "as_of " << as_of << ": "
                                  << left.status().ToString();
    EXPECT_EQ(right.ok(), visible) << "as_of " << as_of << ": "
                                   << right.status().ToString();
    if (visible && left.ok() && right.ok()) {
      EXPECT_EQ(left->value, "L");
      EXPECT_EQ(right->value, "R");
      EXPECT_EQ(left->timestamp, commit_ts);
      EXPECT_EQ(right->timestamp, commit_ts);
    }
  }
}

/// Leaves what a cross-server commit leaves when server 1's COMMIT append
/// is lost: both servers' data + PREPARE durable, a COMMIT on server 0
/// only, and the writes published. Returns the commit timestamp.
uint64_t StageLostCommitOnServer1(TxnFixture* f) {
  // A commit timestamp above every issued one, straight from the authority.
  const uint64_t ts = f->coord.ReserveTimestamps(0, 1);
  const std::array<tablet::WriteOp, 2> ops = {
      tablet::WriteOp{f->uid0, "left", "L"},
      tablet::WriteOp{f->uid1, "right", "R"}};
  std::array<tablet::MutationBatch, 2> data;
  for (int i = 0; i < 2; i++) {
    auto batch = f->servers[i]->Submit(
        {ops[i]}, log::AckMode::kQuorum,
        tablet::TxnStamp{42, ts, tablet::TxnMark::kPrepare, {0, 1}});
    EXPECT_TRUE(batch.ok());
    EXPECT_TRUE(f->servers[i]->Wait(&*batch).ok());
    data[i] = std::move(*batch);
  }
  auto commit = f->servers[0]->Submit(
      {}, log::AckMode::kQuorum,
      tablet::TxnStamp{42, ts, tablet::TxnMark::kCommit, {}});
  EXPECT_TRUE(commit.ok());
  EXPECT_TRUE(f->servers[0]->Wait(&*commit).ok());
  for (int i = 0; i < 2; i++) {
    EXPECT_TRUE(f->servers[i]->Publish(data[i]).ok());
  }
  return ts;
}

TEST(TxnCrashTest, LostCommitOnOneParticipantResolvesAtRestart) {
  TxnFixture f;
  auto txn = BeginPair(&f);
  // Both PREPAREs and server 0's COMMIT land; server 1's COMMIT fails. The
  // transaction was decided when the PREPAREs landed: Commit acks.
  FailAppendsAfter(&f, 3);
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  ClearDiskFaults(&f);
  const uint64_t ts = txn->commit_ts();
  TabletServer* lost = f.servers[1].get();
  EXPECT_EQ(CountMarks(lost, log::LogRecordType::kPrepare, ts), 1);
  EXPECT_EQ(CountMarks(lost, log::LogRecordType::kCommit, ts), 0);
  ExpectAtomicPair(&f, ts, /*committed=*/true);

  // The participant that lost its COMMIT restarts. Its log leaves the
  // transaction undecided; server 0's COMMIT decides it.
  lost->Crash();
  tablet::RecoveryStats stats;
  ASSERT_TRUE(lost->Start(&stats).ok());
  EXPECT_EQ(stats.in_doubt_committed, 1u);
  EXPECT_EQ(stats.in_doubt_aborted, 0u);
  ExpectAtomicPair(&f, ts, /*committed=*/true);
  // The resolver recorded its outcome in the restarted server's own log.
  EXPECT_GE(CountMarks(lost, log::LogRecordType::kCommit, ts), 1);
}

TEST(TxnCrashTest, BothCommitsLostResolveAtRestart) {
  TxnFixture f;
  auto txn = BeginPair(&f);
  FailAppendsAfter(&f, 2);  // both PREPAREs land, neither COMMIT does
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  const uint64_t ts = txn->commit_ts();
  f.servers[0]->Crash();
  f.servers[1]->Crash();
  ClearDiskFaults(&f);

  // Server 0 finds server 1's PREPARE (every participant prepared); server
  // 1 then finds the COMMIT server 0's resolver recorded.
  for (auto& server : f.servers) {
    tablet::RecoveryStats stats;
    ASSERT_TRUE(server->Start(&stats).ok());
    EXPECT_EQ(stats.in_doubt_committed, 1u);
  }
  ExpectAtomicPair(&f, ts, /*committed=*/true);
}

TEST(TxnCrashTest, FailedPrepareRoundAbortsEverywhere) {
  TxnFixture f;
  // A read replica tails server 0's log from the start.
  replica::ReplicaServerOptions replica_options;
  replica_options.node = 2;
  replica::ReplicaServer replica(replica_options, &f.dfs);
  ASSERT_TRUE(replica.Start().ok());
  const TabletDescriptor d0 = f.servers[0]->FindTablet(f.uid0)->descriptor();
  ASSERT_TRUE(replica.AddTablet(d0, /*source_instance=*/0).ok());

  // Server 1's tablet refuses the round after server 0 prepared.
  auto txn = BeginPair(&f);
  ASSERT_TRUE(f.servers[1]->SealTablet(f.uid1).ok());
  EXPECT_FALSE(f.manager->Commit(txn.get()).ok());
  const uint64_t ts = txn->commit_ts();
  EXPECT_EQ(CountMarks(f.servers[0].get(), log::LogRecordType::kPrepare, ts),
            1);
  EXPECT_EQ(CountMarks(f.servers[0].get(), log::LogRecordType::kAbort, ts),
            1);
  ExpectAtomicPair(&f, ts, /*committed=*/false);

  // A later write lands above the transaction, and the replica's watermark
  // passes both: the ABORT decided what the PREPARE left open.
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "later", "v").ok());
  const uint64_t later_ts = *f.servers[0]->LatestVersion(f.uid0, "later");
  ASSERT_GT(later_ts, ts);
  ASSERT_TRUE(replica.TickTailers().ok());
  auto watermark = replica.Watermark(f.uid0);
  ASSERT_TRUE(watermark.ok());
  EXPECT_GE(*watermark, later_ts);

  ASSERT_TRUE(f.servers[1]->UnsealTablet(f.uid1).ok());
  for (auto& server : f.servers) server->Crash();
  for (auto& server : f.servers) {
    tablet::RecoveryStats stats;
    ASSERT_TRUE(server->Start(&stats).ok());
    EXPECT_EQ(stats.in_doubt_committed, 0u);
  }
  ExpectAtomicPair(&f, ts, /*committed=*/false);
}

TEST(TxnCrashTest, CompactionKeepsTxnWhoseCommitIsMissing) {
  TxnFixture f;
  const uint64_t ts = StageLostCommitOnServer1(&f);
  tablet::CompactionStats stats;
  ASSERT_TRUE(f.servers[1]->CompactLog({}, &stats).ok());
  EXPECT_EQ(stats.dropped_uncommitted, 0u);
  // The index now points into the sorted output: the record was kept.
  ExpectAtomicPair(&f, ts, /*committed=*/true);
  f.servers[1]->Crash();
  ASSERT_TRUE(f.servers[1]->Start().ok());
  ExpectAtomicPair(&f, ts, /*committed=*/true);
}

TEST(TxnCrashTest, CompactionKeepsEvidenceForAnotherParticipant) {
  TxnFixture f;
  const uint64_t ts = StageLostCommitOnServer1(&f);
  // Server 0 compacts its PREPARE and COMMIT away from the live lane; they
  // must survive in the output, since server 1 still needs them.
  tablet::CompactionStats stats;
  ASSERT_TRUE(f.servers[0]->CompactLog({}, &stats).ok());
  EXPECT_EQ(stats.dropped_uncommitted, 0u);
  f.servers[1]->Crash();
  tablet::RecoveryStats recovery;
  ASSERT_TRUE(f.servers[1]->Start(&recovery).ok());
  EXPECT_EQ(recovery.in_doubt_committed, 1u);
  ExpectAtomicPair(&f, ts, /*committed=*/true);
}

// A participant restarts between the two PREPARE appends, its coordinator
// still running. Its log holds the PREPARE, the other log does not yet:
// deciding now would abort a transaction the coordinator is about to
// commit. The coordinator's steps are taken by hand so the restart can sit
// between them; the lock set is the real one.
TEST(TxnCrashTest, RestartBetweenPreparesLeavesTheDecisionToTheCoordinator) {
  TxnFixture f;
  coord::LockManager locks(&f.coord);
  OrderedLockSet lock_set(&locks, f.coord.CreateSession(0), "txn-42",
                          /*client_node=*/0);
  auto ts = lock_set.AcquireAll({{f.uid0, "left"}, {f.uid1, "right"}});
  ASSERT_TRUE(ts.ok());
  const tablet::TxnStamp prepare{42, *ts, tablet::TxnMark::kPrepare, {0, 1}};
  const std::array<tablet::WriteOp, 2> ops = {
      tablet::WriteOp{f.uid0, "left", "L"},
      tablet::WriteOp{f.uid1, "right", "R"}};
  std::array<tablet::MutationBatch, 2> data;
  auto append = [&](int i) {
    auto batch = f.servers[i]->Submit({ops[i]}, log::AckMode::kQuorum,
                                      prepare);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(f.servers[i]->Wait(&*batch).ok());
    data[i] = std::move(*batch);
  };
  append(0);

  f.servers[0]->Crash();
  tablet::RecoveryStats stats;
  ASSERT_TRUE(f.servers[0]->Start(&stats).ok());
  EXPECT_EQ(stats.in_doubt_deferred, 1u);
  EXPECT_EQ(stats.in_doubt_aborted, 0u);
  EXPECT_EQ(stats.in_doubt_committed, 0u);
  EXPECT_EQ(CountMarks(f.servers[0].get(), log::LogRecordType::kAbort, *ts),
            0);

  // The second PREPARE lands, so the transaction is committed; the
  // coordinator records the decision, publishes and releases the locks.
  append(1);
  for (int i = 0; i < 2; i++) {
    ASSERT_TRUE(f.servers[i]
                    ->RecordDecisions({{*ts, /*committed=*/true}},
                                      log::AckMode::kQuorum)
                    .ok());
    ASSERT_TRUE(f.servers[i]->Publish(data[i]).ok());
  }
  lock_set.ReleaseAll();
  ExpectAtomicPair(&f, *ts, /*committed=*/true);

  // A second restart replays PREPARE then COMMIT: the side stays.
  f.servers[0]->Crash();
  ASSERT_TRUE(f.servers[0]->Start().ok());
  ExpectAtomicPair(&f, *ts, /*committed=*/true);
}

// A participant that stays up loses its COMMIT append. It keeps the
// decision and appends it with its next batch, so a replica tailing its log
// moves its watermark past the transaction, and the failed append leaves
// nothing behind that would misplace the next batch's records.
TEST(TxnCrashTest, LostCommitOnLiveParticipantIsAppendedAgain) {
  TxnFixture f;
  replica::ReplicaServerOptions replica_options;
  replica_options.node = 2;
  replica::ReplicaServer replica(replica_options, &f.dfs);
  ASSERT_TRUE(replica.Start().ok());
  const TabletDescriptor d1 = f.servers[1]->FindTablet(f.uid1)->descriptor();
  ASSERT_TRUE(replica.AddTablet(d1, /*source_instance=*/1).ok());

  const uint64_t failures_before =
      TxnCounter("tablet.decision_append_failures");
  auto txn = BeginPair(&f);
  FailAppendsAfter(&f, 3);  // server 1's COMMIT is the fourth append
  ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
  ClearDiskFaults(&f);
  const uint64_t ts = txn->commit_ts();
  TabletServer* server = f.servers[1].get();
  EXPECT_EQ(TxnCounter("tablet.decision_append_failures") - failures_before,
            1u);
  EXPECT_EQ(CountMarks(server, log::LogRecordType::kCommit, ts), 0);
  ASSERT_TRUE(replica.TickTailers().ok());
  ASSERT_TRUE(replica.Watermark(f.uid1).ok());
  EXPECT_LT(*replica.Watermark(f.uid1), ts);

  ASSERT_TRUE(server->Put(f.uid1, "later", "v").ok());
  EXPECT_EQ(CountMarks(server, log::LogRecordType::kCommit, ts), 1);
  auto later = server->Get(f.uid1, "later");
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_EQ(later->value, "v");
  ASSERT_TRUE(replica.TickTailers().ok());
  auto watermark = replica.Watermark(f.uid1);
  ASSERT_TRUE(watermark.ok());
  EXPECT_GE(*watermark, later->timestamp);
  ExpectAtomicPair(&f, ts, /*committed=*/true);
}

// A transactional delete is a buffered write: it pays the same bookkeeping
// as Write and Read.
TEST(TxnTest, TransactionalDeleteChargesBookkeeping) {
  TxnFixture f(1);
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v").ok());
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "j", "v").ok());
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Read(txn.get(), f.uid0, "k").ok());
  ASSERT_TRUE(f.manager->Read(txn.get(), f.uid0, "j").ok());
  // Both cells were read, so neither call looks up a version again.
  sim::VirtualTime before = ctx.now();
  ASSERT_TRUE(f.manager->Delete(txn.get(), f.uid0, "k").ok());
  EXPECT_EQ(ctx.now() - before, sim::costs::kTxnBookkeepingUs);
  before = ctx.now();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "j", "w").ok());
  EXPECT_EQ(ctx.now() - before, sim::costs::kTxnBookkeepingUs);
}

TEST(TxnTest, SerializableModeAbortsWriteSkew) {
  TxnFixture f(1);
  txn::TransactionManagerOptions serializable;
  serializable.serializable = true;
  TransactionManager strict(
      &f.coord, 0,
      [&f](const std::string& uid) {
        return f.servers[0]->FindTablet(uid) != nullptr ? f.servers[0].get()
                                                        : nullptr;
      },
      serializable);
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "x", "1").ok());
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "y", "1").ok());
  auto t1 = strict.Begin();
  auto t2 = strict.Begin();
  ASSERT_TRUE(strict.Read(t1.get(), f.uid0, "x").ok());
  ASSERT_TRUE(strict.Read(t2.get(), f.uid0, "y").ok());
  ASSERT_TRUE(strict.Write(t1.get(), f.uid0, "y", "0").ok());
  ASSERT_TRUE(strict.Write(t2.get(), f.uid0, "x", "0").ok());
  EXPECT_TRUE(strict.Commit(t1.get()).ok());
  // Under the §3.7.1 serializable option the rw-antidependency is caught:
  // t2's read of y was invalidated by t1's committed write.
  EXPECT_TRUE(strict.Commit(t2.get()).IsAborted());
}

TEST(TxnTest, SerializableReadOnlyStillCommitsWithoutLocks) {
  TxnFixture f(1);
  txn::TransactionManagerOptions serializable;
  serializable.serializable = true;
  TransactionManager strict(
      &f.coord, 0,
      [&f](const std::string& uid) {
        return f.servers[0]->FindTablet(uid) != nullptr ? f.servers[0].get()
                                                        : nullptr;
      },
      serializable);
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v").ok());
  auto reader = strict.Begin();
  ASSERT_TRUE(strict.Read(reader.get(), f.uid0, "k").ok());
  // A concurrent writer does not abort the read-only transaction.
  ASSERT_TRUE(f.servers[0]->Put(f.uid0, "k", "v2").ok());
  EXPECT_TRUE(strict.Commit(reader.get()).ok());
}

// The commit's critical path is one coordination round trip (the multi
// that takes the lock set also draws the commit timestamp), the validation
// probes, and the group-committed append and publish. The lock release runs
// on a clock of its own, but the locks are gone when Commit returns.
TEST(TxnTest, CommitPaysOneCoordinationRoundTripPlusAppend) {
  TxnFixture f(1);
  sim::SimContext ctx(50000);
  sim::VirtualTime start = 0;
  std::unique_ptr<Transaction> txn;
  {
    sim::SimContext::Scope scope(&ctx);
    txn = f.manager->Begin();
    ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "a", "1").ok());
    ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "b", "2").ok());
    start = ctx.now();
    ASSERT_TRUE(f.manager->Commit(txn.get()).ok());
    EXPECT_TRUE(f.coord.znodes()->GetChildren("/locks")->empty());
  }

  // The same append and publish on an identical server, started where the
  // commit's round trip (locks and stamp together) and validation end.
  // There is no network here, so a round trip is the coordination
  // service's quorum time.
  const sim::VirtualTime before_append =
      1 * sim::costs::kCoordinationUs + 2 * sim::costs::kIndexLookupUs;
  TxnFixture ref(1);
  sim::SimContext ref_ctx(start + before_append);
  {
    sim::SimContext::Scope scope(&ref_ctx);
    auto batch = ref.servers[0]->Submit(
        {{ref.uid0, "a", "1"}, {ref.uid0, "b", "2"}}, log::AckMode::kQuorum,
        tablet::TxnStamp{txn->id(), txn->commit_ts(),
                         tablet::TxnMark::kCommit, {}});
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(ref.servers[0]->Wait(&*batch).ok());
    ASSERT_TRUE(ref.servers[0]->Publish(*batch).ok());
  }
  const sim::VirtualTime append_us = ref_ctx.now() - (start + before_append);
  EXPECT_GT(append_us, 0);
  EXPECT_EQ(ctx.now() - start, before_append + append_us);
}

// Stamps are drawn under the write locks, before validation: writers of one
// key stamp in lock order, and a transaction that fails validation burns
// its stamp without leaving a lock node or a version behind.
TEST(TxnTest, ConflictingCommitsStampInLockOrder) {
  TxnFixture f(1);
  auto first = f.manager->Begin();
  auto loser = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(first.get(), f.uid0, "k", "1").ok());
  ASSERT_TRUE(f.manager->Write(loser.get(), f.uid0, "k", "lost").ok());
  ASSERT_TRUE(f.manager->Commit(first.get()).ok());
  EXPECT_EQ(*f.servers[0]->LatestVersion(f.uid0, "k"), first->commit_ts());

  // `loser` observed the version before `first`: it takes the lock and a
  // stamp, fails validation, and leaves no lock node and no version behind.
  const uint64_t before_abort = f.coord.LatestTimestamp();
  EXPECT_TRUE(f.manager->Commit(loser.get()).IsAborted());
  EXPECT_EQ(f.coord.LatestTimestamp(), before_abort + 1);  // burned
  EXPECT_TRUE(f.coord.znodes()->GetChildren("/locks")->empty());
  EXPECT_EQ(*f.servers[0]->LatestVersion(f.uid0, "k"), first->commit_ts());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "k")->value, "1");

  // The next writer of the key takes the lock after `first` released it,
  // so its stamp is later in the global order.
  auto second = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(second.get(), f.uid0, "k", "2").ok());
  ASSERT_TRUE(f.manager->Commit(second.get()).ok());
  EXPECT_GT(second->commit_ts(), first->commit_ts());
  EXPECT_GT(second->commit_ts(), before_abort + 1);
  EXPECT_EQ(*f.servers[0]->LatestVersion(f.uid0, "k"), second->commit_ts());
  EXPECT_EQ(f.servers[0]->Get(f.uid0, "k")->value, "2");
}

TEST(OrderedLockSetTest, AcquiresAndReleases) {
  coord::CoordinationService coord;
  coord::LockManager locks(&coord);
  coord::SessionId s = coord.CreateSession(0);
  {
    OrderedLockSet set(&locks, s, "txn-1", 0);
    ASSERT_TRUE(set.AcquireAll({{"t", "b"}, {"t", "a"}, {"t", "b"}}).ok());
    EXPECT_TRUE(set.holds_all());
    // Another owner cannot take them meanwhile.
    OrderedLockSet other(&locks, s, "txn-2", 0);
    EXPECT_FALSE(other.AcquireAll({{"t", "a"}}, /*max_attempts=*/3).ok());
  }
  // RAII released: now acquirable.
  OrderedLockSet after(&locks, s, "txn-3", 0);
  EXPECT_TRUE(after.AcquireAll({{"t", "a"}, {"t", "b"}}).ok());
}

TEST(OrderedLockSetTest, ReleaseRunsOffTheCallersClock) {
  sim::NetworkModel net(2);
  coord::CoordinationService coord(&net, /*host_node=*/1);
  coord::LockManager locks(&coord);
  coord::SessionId s = coord.CreateSession(0);
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  OrderedLockSet set(&locks, s, "txn-1", 0);
  ASSERT_TRUE(set.AcquireAll({{"t", "a"}, {"t", "b"}}).ok());
  const sim::VirtualTime acquired = ctx.now();
  EXPECT_GE(acquired, sim::costs::kCoordinationUs);
  const sim::VirtualTime nic_busy = net.nic_tx(0)->total_busy_us();
  set.ReleaseAll();
  // The locks are free at once, the caller's clock did not move, and the
  // client's NIC still carried the release.
  EXPECT_TRUE(coord.znodes()->GetChildren("/locks")->empty());
  EXPECT_EQ(ctx.now(), acquired);
  EXPECT_GT(net.nic_tx(0)->total_busy_us(), nic_busy);
}

TEST(OrderedLockSetTest, StatsCountLockFailures) {
  TxnFixture f(1);
  // Hold a lock out-of-band so the transaction cannot acquire it.
  coord::LockManager locks(&f.coord);
  coord::SessionId s = f.coord.CreateSession(0);
  std::string lock_name = f.uid0;
  lock_name.push_back('\0');
  lock_name += "blocked";
  ASSERT_TRUE(locks.TryLock(s, {lock_name}, "outsider", 0));

  const uint64_t lock_failures = TxnCounter("txn.lock_failures");
  auto txn = f.manager->Begin();
  ASSERT_TRUE(f.manager->Write(txn.get(), f.uid0, "blocked", "v").ok());
  EXPECT_TRUE(f.manager->Commit(txn.get()).IsAborted());
  EXPECT_EQ(TxnCounter("txn.lock_failures") - lock_failures, 1u);
}

// The RAII client::Txn handle: dropping it without Commit must abort the
// transaction and leave no trace — writes invisible, no locks or validation
// state held that would block a later transaction on the same keys.
TEST(ClientTxnTest, DroppedHandleAutoAborts) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"c"}, {{"c"}}, {"key5"}).ok());
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, "key1", "committed", {}).ok());

  uint64_t aborted_before =
      obs::MetricsRegistry::Global().counter("txn.aborted")->value();
  {
    client::Txn txn = client->BeginTxn();
    EXPECT_TRUE(txn.active());
    ASSERT_TRUE(txn.Write("t", 0, "key1", "abandoned").ok());
    ASSERT_TRUE(txn.Write("t", 0, "key2", "abandoned").ok());
    ASSERT_EQ(txn.raw()->state(), Transaction::State::kActive);
    // No Commit/Abort: the handle goes out of scope holding buffered writes.
  }
  EXPECT_EQ(obs::MetricsRegistry::Global().counter("txn.aborted")->value(),
            aborted_before + 1);

  // Nothing leaked into the committed state.
  auto v1 = client->Get("t", 0, "key1", client::ReadOptions{});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->value(), "committed");
  EXPECT_TRUE(
      client->Get("t", 0, "key2", client::ReadOptions{}).status().IsNotFound());

  // The same keys are free for the next transaction: no stale locks.
  client::Txn next = client->BeginTxn();
  ASSERT_TRUE(next.Write("t", 0, "key1", "second").ok());
  ASSERT_TRUE(next.Write("t", 0, "key2", "second").ok());
  ASSERT_TRUE(next.Commit().ok());
  EXPECT_FALSE(next.active());
  EXPECT_EQ(client->Get("t", 0, "key1", client::ReadOptions{})->value(),
            "second");
}

// Moving a Txn transfers abort responsibility: the moved-from handle is
// inert and only the destination aborts on drop.
TEST(ClientTxnTest, MoveTransfersOwnership) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"c"}, {{"c"}}, {"key5"}).ok());
  auto client = cluster.NewClient(0);

  client::Txn outer = client->BeginTxn();
  {
    client::Txn inner = client->BeginTxn();
    ASSERT_TRUE(inner.Write("t", 0, "moved", "v").ok());
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());  // NOLINT(bugprone-use-after-move)
    // `inner` dies here; the live transaction must survive in `outer`.
  }
  EXPECT_TRUE(outer.active());
  ASSERT_TRUE(outer.Commit().ok());
  EXPECT_EQ(client->Get("t", 0, "moved", client::ReadOptions{})->value(), "v");
}

// client::Txn::Delete, the client's transactional delete. Each op below
// holds today; the pre-delete version's as-of reads do not (a delete drops
// every version of the key), so no test reads below the delete.
TEST(ClientTxnTest, DeleteReadsItsOwnDeleteAndCommits) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"c"}, {{"c"}}, {"key5"}).ok());
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, "key1", "v", {}).ok());

  client::Txn txn = client->BeginTxn();
  ASSERT_EQ(*txn.Read("t", 0, "key1"), "v");
  ASSERT_TRUE(txn.Delete("t", 0, "key1").ok());
  // Read-your-own-delete; the committed value stays visible outside.
  EXPECT_TRUE(txn.Read("t", 0, "key1").status().IsNotFound());
  EXPECT_EQ(client->Get("t", 0, "key1", client::ReadOptions{})->value(), "v");
  ASSERT_TRUE(txn.Commit().ok());

  // A snapshot taken after the commit sees the key gone.
  client::Txn later = client->BeginTxn();
  EXPECT_TRUE(later.Read("t", 0, "key1").status().IsNotFound());
  later.Abort();
  EXPECT_TRUE(
      client->Get("t", 0, "key1", client::ReadOptions{}).status().IsNotFound());
}

TEST(ClientTxnTest, CrossServerDeleteCommitsAtomically) {
  cluster::MiniClusterOptions options;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"c"}, {{"c"}}, {"key5"}).ok());
  ASSERT_NE(cluster.master()->Locate("t", 0, "key1")->server_id,
            cluster.master()->Locate("t", 0, "key9")->server_id);
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, "key1", "left", {}).ok());
  ASSERT_TRUE(client->Put("t", 0, "key9", "right", {}).ok());

  client::Txn txn = client->BeginTxn();
  ASSERT_TRUE(txn.Delete("t", 0, "key1").ok());
  ASSERT_TRUE(txn.Delete("t", 0, "key9").ok());
  const uint64_t snapshot = txn.raw()->snapshot_ts();
  ASSERT_TRUE(txn.Commit().ok());

  // Both deletes landed at one commit timestamp; each server logged the
  // PREPARE naming both servers, and the COMMIT.
  const uint64_t commit_ts = txn.raw()->commit_ts();
  EXPECT_GT(commit_ts, snapshot);
  for (const char* key : {"key1", "key9"}) {
    EXPECT_TRUE(
        client->Get("t", 0, key, client::ReadOptions{}).status().IsNotFound())
        << key;
    TabletServer* owner = cluster.server(
        cluster.master()->Locate("t", 0, key)->server_id);
    EXPECT_EQ(CountMarks(owner, log::LogRecordType::kPrepare, commit_ts), 1);
    EXPECT_EQ(CountMarks(owner, log::LogRecordType::kCommit, commit_ts), 1);
  }
}

}  // namespace
}  // namespace logbase::txn

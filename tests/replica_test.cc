// Read replicas (src/replica/): checkpoint-seeded log tailing, watermark
// snapshot reads that match the primary, transactional holdback, bounded
// staleness with primary fallback, crash/reseed convergence, replica
// teardown on migration, and the I6 nemesis invariant (replica-served reads
// are prefix-consistent snapshots, deterministically under faults).

#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/mini_cluster.h"
#include "src/fault/nemesis.h"
#include "src/log/log_record.h"
#include "src/obs/metrics.h"
#include "src/query/plan.h"
#include "src/tablet/read_path.h"
#include "src/sim/sim_context.h"

namespace logbase::replica {
namespace {

// SetReplicaFleet replaces the fleet vector and the resolver std::function
// while the balancer thread calls ResolveReplica/ReplicaFleet; all four now
// go through mu_. Before the fix ReplicaFleet returned a reference to the
// vector and ResolveReplica invoked the std::function with no lock — a data
// race mid-reassignment. Hammer both sides; TSan (this suite carries the
// "concurrency" label) and the monotonic-id assertions below catch a relapse.
TEST(ReplicaFleetTest, ConcurrentFleetSwapAndResolve) {
  coord::CoordinationService coord;
  auto no_servers = [](int) -> tablet::TabletServer* { return nullptr; };
  master::Master m(&coord, 0, no_servers, {});

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int round = 1; !stop.load(std::memory_order_relaxed); round++) {
      // Resolver captures its round; ids and resolver swap together.
      m.SetReplicaFleet({round, round + 1},
                        [](int) -> replica::ReplicaServer* { return nullptr; });
    }
  });
  for (int i = 0; i < 20000; i++) {
    std::vector<int> fleet = m.ReplicaFleet();
    if (!fleet.empty()) {
      ASSERT_EQ(fleet.size(), 2u);
      // Both entries come from the same SetReplicaFleet call: a torn or
      // stale mix would break the pairing invariant.
      ASSERT_EQ(fleet[1], fleet[0] + 1);
      EXPECT_EQ(m.ResolveReplica(fleet[0]), nullptr);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
}

cluster::MiniClusterOptions SmallCluster(int nodes = 3, int replicas = 1) {
  cluster::MiniClusterOptions options;
  options.num_nodes = nodes;
  options.num_replicas = replicas;
  options.server_template.segment_bytes = 1 << 20;
  return options;
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

/// Attaches every assigned tablet to `count` distinct replicas; returns the
/// tablet uids.
std::vector<std::string> AttachAll(master::Master* m, int count) {
  std::vector<std::string> uids;
  for (const auto& [uid, location] : m->AssignmentsSnapshot()) {
    uids.push_back(uid);
    for (int i = 0; i < count; i++) {
      auto added = m->AddReplica(uid);
      EXPECT_TRUE(added.ok()) << added.status().ToString();
    }
  }
  return uids;
}

TEST(ReplicaTest, WatermarkReadsMatchPrimary) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }

  // Attach after the writes: the replica seeds from the checkpoint (if any)
  // and catches up through the log tail. The client's routes were cached
  // before the attach, so drop them to pick up the replica set.
  AttachAll(cluster.active_master(), 1);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();

  for (int i = 0; i < 50; i++) {
    client::ReadOptions primary_opts;
    auto primary = client->Get("t", 0, Key(i), primary_opts);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
    EXPECT_EQ(primary->snapshot_ts, 0u);

    client::ReadOptions stale_opts;
    stale_opts.allow_stale = true;
    auto stale = client->Get("t", 0, Key(i), stale_opts);
    ASSERT_TRUE(stale.ok()) << stale.status().ToString();
    EXPECT_NE(stale->snapshot_ts, 0u);  // actually replica-served
    EXPECT_EQ(stale->value(), primary->value());
    EXPECT_EQ(stale->timestamp(), primary->timestamp());
    EXPECT_LE(stale->timestamp(), stale->snapshot_ts);
  }

  // New writes become visible on the next tick.
  ASSERT_TRUE(client->Put("t", 0, Key(7), "updated", {}).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client::ReadOptions stale_opts;
  stale_opts.allow_stale = true;
  auto updated = client->Get("t", 0, Key(7), stale_opts);
  ASSERT_TRUE(updated.ok());
  EXPECT_NE(updated->snapshot_ts, 0u);
  EXPECT_EQ(updated->value(), "updated");
}

TEST(ReplicaTest, TxnHoldbackAdvancesOnCommit) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "base", {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  ASSERT_EQ(uids.size(), 1u);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  ReplicaServer* rep = cluster.replica(0);
  auto before = rep->Watermark(uid);
  ASSERT_TRUE(before.ok());

  // Stage an undecided transaction in the owner's log: its data records,
  // durable but unpublished, and no COMMIT yet. Client transactions never
  // leave that state behind, so the test drives the server's write surface.
  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  tablet::TabletServer* server = cluster.server(location->server_id);
  // A commit timestamp above every issued one, straight from the authority.
  const uint64_t txn_ts = cluster.coord()->ReserveTimestamps(0, 1);
  auto staged = server->Submit({{uid, Key(3), "txn-value"}},
                               log::AckMode::kQuorum,
                               tablet::TxnStamp{777, txn_ts,
                                                tablet::TxnMark::kNone, {}});
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(server->Wait(&*staged).ok());

  // Auto-commit writes land above the pending transaction (the server may
  // first drain a cached timestamp block below txn_ts; write until one
  // lands above it)...
  uint64_t late_ts = 0;
  for (int i = 0; i < 10000 && late_ts <= txn_ts; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(100 + i), "late", {}).ok());
    auto landed = client->Get("t", 0, Key(100 + i), client::ReadOptions{});
    ASSERT_TRUE(landed.ok());
    late_ts = landed->timestamp();
  }
  ASSERT_GT(late_ts, txn_ts);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  // ...but the watermark holds just below it: a snapshot that included the
  // late writes would have to decide the undecided transaction.
  auto held = rep->Watermark(uid);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(*held, txn_ts - 1);
  EXPECT_GE(*held, *before);

  // COMMIT decides it; the watermark catches up past the late writes and
  // the transactional value becomes readable at the replica.
  auto commit = server->Submit({}, log::AckMode::kQuorum,
                               tablet::TxnStamp{777, txn_ts,
                                                tablet::TxnMark::kCommit, {}});
  ASSERT_TRUE(commit.ok());
  ASSERT_TRUE(server->Wait(&*commit).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  auto advanced = rep->Watermark(uid);
  ASSERT_TRUE(advanced.ok());
  EXPECT_GE(*advanced, late_ts);

  uint64_t snapshot_ts = 0;
  auto got = rep->Get(uid, Slice(Key(3)), index::kLatest,
                      /*max_staleness_us=*/0, &snapshot_ts);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "txn-value");
  EXPECT_EQ(got->timestamp, txn_ts);
  EXPECT_EQ(snapshot_ts, *advanced);
}

TEST(ReplicaTest, StalenessRejectionIsRetryableAndFallsBack) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "fresh", {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();  // routes were cached before the attach
  ReplicaServer* rep = cluster.replica(0);

  // Just synced: any bound is satisfied.
  uint64_t snapshot_ts = 0;
  auto fresh = rep->Get(uid, Slice(Key(1)), index::kLatest,
                        /*max_staleness_us=*/1000, &snapshot_ts);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_NE(snapshot_ts, 0u);

  // The replica falls behind the caller's bound: the read is rejected with
  // a *retryable* Unavailable, never silently served.
  ctx.Advance(5000);
  auto rejected =
      rep->Get(uid, Slice(Key(1)), index::kLatest, /*max_staleness_us=*/1000);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();
  auto staleness = rep->StalenessUs(uid);
  ASSERT_TRUE(staleness.ok());
  EXPECT_GE(*staleness, 5000);

  // The client rides the rejection to the primary: the read succeeds and is
  // marked primary-served (snapshot_ts == 0).
  client::ReadOptions bounded;
  bounded.allow_stale = true;
  bounded.max_staleness_us = 1000;
  auto fallback = client->Get("t", 0, Key(1), bounded);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->snapshot_ts, 0u);
  EXPECT_EQ(fallback->value(), "fresh");

  // A tick re-syncs the tailer; the same bounded read is replica-served.
  ASSERT_TRUE(cluster.TickReplicas().ok());
  auto resynced = client->Get("t", 0, Key(1), bounded);
  ASSERT_TRUE(resynced.ok());
  EXPECT_NE(resynced->snapshot_ts, 0u);
}

TEST(ReplicaTest, CrashedReplicaRebuildsAndConverges) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(client->Delete("t", 0, Key(i * 6), {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());

  // Crash drops all replica soft state; writes keep flowing meanwhile.
  cluster.CrashReplica(0);
  EXPECT_FALSE(cluster.replica(0)->running());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(200 + i), "post-crash", {}).ok());
  }

  // Restart reseeds from the DFS (checkpoint + log tail) and converges: the
  // replica's snapshot at its watermark is byte-identical to the primary's
  // as-of read at the same timestamp.
  ASSERT_TRUE(cluster.RestartReplica(0).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  ReplicaServer* rep = cluster.replica(0);
  uint64_t snapshot_ts = 0;
  query::QueryPlan match_all;  // whole range, no predicate, raw values
  auto scanned = rep->ExecuteScan(uid, match_all, /*max_staleness_us=*/0, {},
                                  &snapshot_ts);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_NE(snapshot_ts, 0u);
  auto replica_rows = tablet::RowsFromBatches(scanned->batches);

  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  query::ExecOptions at_snapshot;
  at_snapshot.as_of = snapshot_ts;
  auto primary = cluster.server(location->server_id)
                     ->ExecuteScan(uid, match_all, at_snapshot);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  auto primary_rows = tablet::RowsFromBatches(primary->batches);

  ASSERT_EQ(replica_rows.size(), primary_rows.size());
  EXPECT_FALSE(replica_rows.empty());
  for (size_t i = 0; i < replica_rows.size(); i++) {
    EXPECT_EQ(replica_rows[i].key, primary_rows[i].key);
    EXPECT_EQ(replica_rows[i].timestamp, primary_rows[i].timestamp);
    EXPECT_EQ(replica_rows[i].value, primary_rows[i].value);
  }
}

/// One line per index entry: key, version and log pointer.
std::vector<std::string> Digest(const std::vector<index::IndexEntry>& entries) {
  std::vector<std::string> out;
  for (const index::IndexEntry& e : entries) {
    out.push_back(e.key + "@" + std::to_string(e.timestamp) + "->" +
                  std::to_string(e.ptr.instance) + ":" +
                  std::to_string(e.ptr.segment) + ":" +
                  std::to_string(e.ptr.offset) + ":" +
                  std::to_string(e.ptr.size));
  }
  return out;
}

std::vector<std::string> Digest(const index::MultiVersionIndex& index) {
  std::vector<index::IndexEntry> entries;
  index.VisitAll(
      [&entries](const index::IndexEntry& e) { entries.push_back(e); });
  return Digest(entries);
}

// Crash recovery, tablet adoption and replica tailing replay one log through
// the same committed-record applier, so all three must build the same
// index: the restarted owner, an adopter on another server and a replica
// attached before any checkpoint.
TEST(ReplicaTest, RecoveryAdoptionAndTailingAgree) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  for (int i = 0; i < 20; i += 5) {
    ASSERT_TRUE(client->Delete("t", 0, Key(i), {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  ASSERT_EQ(uids.size(), 1u);
  const std::string uid = uids[0];
  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  const int owner = location->server_id;
  tablet::TabletServer* server = cluster.server(owner);
  const tablet::TabletDescriptor descriptor =
      server->FindTablet(uid)->descriptor();

  // Transactional records go straight into the owner's log, durable but
  // never published: client transactions never leave data without a
  // COMMIT, nor interleave two.
  auto put = [&](uint64_t txn_id, int key) {
    return tablet::WriteOp{uid, Key(key), "txn" + std::to_string(txn_id),
                           false};
  };
  auto append = [server](std::vector<tablet::WriteOp> ops, uint64_t txn_id,
                         uint64_t ts, bool commit) {
    auto batch = server->Submit(std::move(ops), log::AckMode::kQuorum,
                                tablet::TxnStamp{txn_id, ts,
                                                 commit
                                                     ? tablet::TxnMark::kCommit
                                                     : tablet::TxnMark::kNone,
                                                 {}});
    if (!batch.ok()) return batch.status();
    return server->Wait(&*batch);
  };
  const uint64_t ts_a = cluster.coord()->ReserveTimestamps(0, 1);
  const uint64_t ts_b = cluster.coord()->ReserveTimestamps(0, 1);
  const uint64_t ts_del = cluster.coord()->ReserveTimestamps(0, 1);
  const uint64_t ts_open = cluster.coord()->ReserveTimestamps(0, 1);
  // A and B interleave and commit in reverse order.
  ASSERT_TRUE(append({put(101, 1), put(101, 40)}, 101, ts_a, false).ok());
  ASSERT_TRUE(append({put(102, 2)}, 102, ts_b, false).ok());
  ASSERT_TRUE(append({}, 102, ts_b, true).ok());
  ASSERT_TRUE(append({}, 101, ts_a, true).ok());
  // A transactional delete.
  ASSERT_TRUE(append({{uid, Key(3), "", true}}, 103, ts_del, true).ok());
  // A transaction that never commits.
  ASSERT_TRUE(append({put(104, 4)}, 104, ts_open, false).ok());
  ASSERT_TRUE(client->Put("t", 0, Key(6), "late", {}).ok());
  ASSERT_TRUE(client->Delete("t", 0, Key(7), {}).ok());

  // Replica tailing.
  ASSERT_TRUE(cluster.TickReplicas().ok());
  auto replica_entries = cluster.replica(0)->IndexEntries(uid);
  ASSERT_TRUE(replica_entries.ok()) << replica_entries.status().ToString();
  const std::vector<std::string> replica = Digest(*replica_entries);
  auto watermark = cluster.replica(0)->Watermark(uid);
  ASSERT_TRUE(watermark.ok());
  EXPECT_LT(*watermark, ts_open);

  // Tablet adoption on another server.
  tablet::TabletServer* adopter = cluster.server((owner + 1) % 3);
  ASSERT_TRUE(adopter->AdoptTablet(descriptor, owner).ok());
  const std::vector<std::string> adopted =
      Digest(*adopter->FindTablet(uid)->index());

  // Crash recovery of the owner.
  cluster.CrashServer(owner);
  ASSERT_TRUE(cluster.RestartServer(owner).ok());
  tablet::Tablet* recovered_tablet = server->FindTablet(uid);
  ASSERT_NE(recovered_tablet, nullptr);
  const std::vector<std::string> recovered =
      Digest(*recovered_tablet->index());

  EXPECT_EQ(replica, recovered);
  EXPECT_EQ(adopted, recovered);

  // Spot-check the shared result against the log's committed history.
  auto versions_of = [&](int key) {
    return recovered_tablet->index()->GetAllVersions(Slice(Key(key)));
  };
  EXPECT_TRUE(versions_of(0).empty());  // auto-commit delete
  EXPECT_TRUE(versions_of(7).empty());
  EXPECT_TRUE(versions_of(3).empty());  // transactional delete
  ASSERT_FALSE(versions_of(1).empty());
  EXPECT_EQ(versions_of(1)[0].timestamp, ts_a);
  ASSERT_EQ(versions_of(40).size(), 1u);
  ASSERT_FALSE(versions_of(2).empty());
  EXPECT_EQ(versions_of(2)[0].timestamp, ts_b);
  for (const index::IndexEntry& e : versions_of(4)) {
    EXPECT_NE(e.timestamp, ts_open);  // never committed
  }
}

// A historical read must not fill the read buffer: the buffer holds a row's
// newest version, so a cached as-of miss would answer later latest reads
// with the old value.
TEST(ReplicaTest, AsOfReadDoesNotPoisonLatest) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, "k", "old", {}).ok());
  auto old_read = client->Get("t", 0, "k", client::ReadOptions{});
  ASSERT_TRUE(old_read.ok());
  const uint64_t t_old = old_read->timestamp();
  ASSERT_TRUE(client->Put("t", 0, "k", "new", {}).ok());

  // Seeded from the checkpoint, the replica's buffer has no entry for k.
  for (int i = 0; i < cluster.num_nodes(); i++) {
    ASSERT_TRUE(cluster.server(i)->Checkpoint().ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  ASSERT_EQ(uids.size(), 1u);
  ReplicaServer* rep = cluster.replica(0);

  auto historical = rep->Get(uids[0], "k", t_old, /*max_staleness_us=*/0);
  ASSERT_TRUE(historical.ok()) << historical.status().ToString();
  EXPECT_EQ(historical->value, "old");
  auto latest = rep->Get(uids[0], "k", index::kLatest, /*max_staleness_us=*/0);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->value, "new");
}

/// What one read saw: found, and if so the version and value.
struct PointRead {
  bool found = false;
  uint64_t timestamp = 0;
  std::string value;

  bool operator==(const PointRead&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PointRead& r) {
  if (!r.found) return os << "(not found)";
  return os << r.value << "@" << r.timestamp;
}

PointRead FromGet(const Result<tablet::ReadValue>& read) {
  EXPECT_TRUE(read.ok() || read.status().IsNotFound())
      << read.status().ToString();
  if (!read.ok()) return {};
  return {true, read->timestamp, read->value};
}

PointRead FromScan(const Result<query::TabletResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  std::vector<tablet::ReadRow> rows = tablet::RowsFromBatches(result->batches);
  EXPECT_LE(rows.size(), 1u);
  if (rows.empty()) return {};
  return {true, rows[0].timestamp, rows[0].value};
}

/// A match-all plan over `key` alone.
query::QueryPlan OneKey(const std::string& key) {
  query::QueryPlan plan;
  plan.start_key = key;
  plan.end_key = key + '\0';
  return plan;
}

/// Bytes the data nodes have served: every pread moves it.
uint64_t PreadBytes() {
  return obs::MetricsRegistry::Global().counter("dfs.pread.bytes")->value();
}

// Point reads and range reads share one read path on both server kinds, so
// at any snapshot a primary Get, a replica Get and a one-key ExecuteScan on
// each must see the same version. The history mixes overwrites, a delete, a
// committed transaction, a checkpoint and writes after it; the second pass
// reads through the buffers the first pass filled, so the replica's latest
// scans never reach the log.
TEST(ReplicaTest, PointAndRangeReadsAgreeOnBothServers) {
  cluster::MiniClusterOptions options = SmallCluster();
  options.server_template.read_buffer_bytes = 1 << 20;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);

  std::vector<uint64_t> write_ts;
  auto put = [&](int key, const std::string& value) {
    ASSERT_TRUE(client->Put("t", 0, Key(key), value, {}).ok());
    auto landed = client->Get("t", 0, Key(key), client::ReadOptions{});
    ASSERT_TRUE(landed.ok());
    write_ts.push_back(landed->timestamp());
  };
  for (int round = 0; round < 3; round++) {
    for (int key = 0; key < 8; key++) {
      put(key, "v" + std::to_string(key) + "." + std::to_string(round));
    }
  }
  ASSERT_TRUE(client->Delete("t", 0, Key(2), {}).ok());
  client::Txn txn = client->BeginTxn();
  ASSERT_TRUE(txn.Write("t", 0, Key(3), "txn3").ok());
  ASSERT_TRUE(txn.Write("t", 0, Key(8), "txn8").ok());
  ASSERT_TRUE(txn.Commit().ok());
  for (int key : {3, 8}) {
    auto landed = client->Get("t", 0, Key(key), client::ReadOptions{});
    ASSERT_TRUE(landed.ok());
    write_ts.push_back(landed->timestamp());
  }
  for (int i = 0; i < cluster.num_nodes(); i++) {
    ASSERT_TRUE(cluster.server(i)->Checkpoint().ok());
  }
  put(1, "after-checkpoint");
  put(2, "reborn");
  put(9, "new-key");

  std::vector<std::string> uids = AttachAll(m, 1);
  ASSERT_EQ(uids.size(), 1u);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  tablet::TabletServer* primary = cluster.server(location->server_id);
  ReplicaServer* rep = cluster.replica(0);

  // An as-of scan below a row's newest version reads the log and leaves the
  // buffer alone. The applier buffered key 1's newest version; key 4 came
  // from the checkpoint and is not buffered yet.
  for (int key : {1, 4}) {
    query::ExecOptions first_write;
    first_write.as_of = write_ts[key];  // round 0
    const uint64_t preads_before = PreadBytes();
    EXPECT_EQ(
        FromScan(rep->ExecuteScan(uid, OneKey(Key(key)), 0, first_write)),
        (PointRead{true, write_ts[key], "v" + std::to_string(key) + ".0"}));
    EXPECT_GT(PreadBytes(), preads_before);
    EXPECT_EQ(FromGet(rep->Get(uid, Key(key), index::kLatest, 0)),
              FromGet(primary->Get(uid, Key(key))));
  }

  std::vector<uint64_t> snapshots = write_ts;
  snapshots.push_back(index::kLatest);
  for (int pass = 0; pass < 2; pass++) {
    for (int key = 0; key < 10; key++) {
      const query::QueryPlan plan = OneKey(Key(key));
      for (uint64_t snapshot : snapshots) {
        query::ExecOptions exec;
        exec.as_of = snapshot;
        const PointRead want = FromGet(primary->Get(uid, Key(key), snapshot));
        SCOPED_TRACE(Key(key) + " at " + std::to_string(snapshot) +
                     ", pass " + std::to_string(pass));
        EXPECT_EQ(FromGet(rep->Get(uid, Key(key), snapshot, 0)), want);
        EXPECT_EQ(FromScan(primary->ExecuteScan(uid, plan, exec)), want);
        const uint64_t preads_before = PreadBytes();
        EXPECT_EQ(FromScan(rep->ExecuteScan(uid, plan, 0, exec)), want);
        if (pass == 1 && snapshot == index::kLatest) {
          EXPECT_EQ(PreadBytes(), preads_before)
              << "a buffered replica scan read the log";
        }
      }
    }
  }

  // The history is what the comparison claims to cover.
  EXPECT_EQ(FromGet(rep->Get(uid, Key(2), index::kLatest, 0)).value, "reborn");
  EXPECT_EQ(FromGet(rep->Get(uid, Key(3), index::kLatest, 0)).value, "txn3");
  EXPECT_EQ(FromGet(rep->Get(uid, Key(9), index::kLatest, 0)).value,
            "new-key");
}

// A replica index pointer that no longer resolves (the primary compacted
// its segment away) fails an unbuffered row's scan with a retryable
// Unavailable and flags the tablet for reseed. Rows the buffer holds at the
// indexed version are still served, and the next tick reseeds the tablet
// from the compaction's checkpoint.
TEST(ReplicaTest, CompactedLogPointerReseedsOnNextTick) {
  cluster::MiniClusterOptions options = SmallCluster();
  options.server_template.read_buffer_bytes = 1 << 20;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "cold" + std::to_string(i), {})
                    .ok());
  }
  // Seeded from the checkpoint, keys 0-4 are indexed but not buffered.
  for (int i = 0; i < cluster.num_nodes(); i++) {
    ASSERT_TRUE(cluster.server(i)->Checkpoint().ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  ASSERT_EQ(uids.size(), 1u);
  const std::string& uid = uids[0];
  // Tailed after the seed, key 5 lands in the buffer through the applier.
  ASSERT_TRUE(client->Put("t", 0, Key(5), "hot", {}).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();  // routes were cached before the attach
  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  tablet::TabletServer* primary = cluster.server(location->server_id);
  ReplicaServer* rep = cluster.replica(0);
  const PointRead hot = FromGet(primary->Get(uid, Key(5)));
  ASSERT_EQ(hot.value, "hot");

  ASSERT_TRUE(primary->CompactLog().ok());

  auto stale = rep->ExecuteScan(uid, OneKey(Key(0)), 0);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsUnavailable()) << stale.status().ToString();

  client::QueryOptions stale_ok;
  stale_ok.read.allow_stale = true;
  auto fallback = client->Query("t", 0, OneKey(Key(0)), stale_ok);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->tablets_from_replica, 0u);
  std::vector<tablet::ReadRow> rows =
      tablet::RowsFromBatches(fallback->batches);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value, "cold0");

  EXPECT_EQ(FromScan(rep->ExecuteScan(uid, OneKey(Key(5)), 0)), hot);

  ASSERT_TRUE(rep->TickTailers().ok());
  query::QueryPlan all;
  auto want = primary->ExecuteScan(uid, all, {});
  auto got = rep->ExecuteScan(uid, all, 0);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::vector<tablet::ReadRow> want_rows =
      tablet::RowsFromBatches(want->batches);
  std::vector<tablet::ReadRow> got_rows = tablet::RowsFromBatches(got->batches);
  ASSERT_EQ(got_rows.size(), 6u);
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (size_t i = 0; i < want_rows.size(); i++) {
    EXPECT_EQ(got_rows[i].key, want_rows[i].key);
    EXPECT_EQ(got_rows[i].timestamp, want_rows[i].timestamp);
    EXPECT_EQ(got_rows[i].value, want_rows[i].value);
  }
}

TEST(ReplicaTest, MigrationTearsDownReplicasAndClientsFallBack) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.active_master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  std::vector<std::string> uids = AttachAll(m, 1);
  const std::string& uid = uids[0];
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();  // routes were cached before the attach

  // Warm the client's route cache with the replica route.
  client::ReadOptions stale_opts;
  stale_opts.allow_stale = true;
  auto warmed = client->Get("t", 0, Key(2), stale_opts);
  ASSERT_TRUE(warmed.ok());
  EXPECT_NE(warmed->snapshot_ts, 0u);
  // A second client's stale-tolerant query caches the same layout, and the
  // replica serves it.
  auto querier = cluster.NewClient(1);
  client::QueryOptions query_opts;
  query_opts.read.allow_stale = true;
  auto served = querier->Query("t", 0, query::QueryPlan{}, query_opts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->tablets_from_replica, 1u);

  // Migrate the tablet: its replicas tail the *source's* log, so the master
  // tears them down rather than serve a frozen cursor.
  auto location = m->GetAssignment(uid);
  ASSERT_TRUE(location.ok());
  int to = (location->server_id + 1) % cluster.num_nodes();
  ASSERT_TRUE(m->MigrateTablet(uid, to).ok());

  auto after = m->GetAssignment(uid);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->server_id, to);
  EXPECT_TRUE(after->replicas.empty());
  EXPECT_EQ(cluster.replica(0)->NumTablets(), 0);

  // The client still holds the old route: the torn-down replica answers
  // "unknown replica tablet", which invalidates the cache and the read
  // completes on the (new) primary in the same call.
  auto fallback = client->Get("t", 0, Key(2), stale_opts);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->snapshot_ts, 0u);
  EXPECT_EQ(fallback->value(), "v2");

  // The querier's layout still names the torn-down replica and the old
  // owner: the query drops the layout, re-plans, and the new primary gives
  // the same answer.
  auto requeried = querier->Query("t", 0, query::QueryPlan{}, query_opts);
  ASSERT_TRUE(requeried.ok()) << requeried.status().ToString();
  EXPECT_EQ(requeried->tablets_from_replica, 0u);
  const std::vector<tablet::ReadRow> want =
      tablet::RowsFromBatches(served->batches);
  const std::vector<tablet::ReadRow> got =
      tablet::RowsFromBatches(requeried->batches);
  ASSERT_EQ(got.size(), 20u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].timestamp, want[i].timestamp);
    EXPECT_EQ(got[i].value, want[i].value);
  }

  // Re-attached replicas on the new owner serve again.
  ASSERT_TRUE(m->AddReplica(uid).ok());
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();
  auto reattached = client->Get("t", 0, Key(2), stale_opts);
  ASSERT_TRUE(reattached.ok());
  EXPECT_NE(reattached->snapshot_ts, 0u);
  EXPECT_EQ(reattached->value(), "v2");
}

// A replica torn down under an unchanged primary: the replica walk skips it
// and drops the cached layout, so the next stale read routes by a fresh
// layout straight to the primary instead of trying the detached replica
// again.
TEST(ReplicaTest, TornDownReplicaDropsCachedLayout) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.active_master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  ASSERT_TRUE(client->Put("t", 0, Key(1), "v1", {}).ok());
  std::vector<std::string> uids = AttachAll(m, 1);
  ASSERT_EQ(uids.size(), 1u);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  client->InvalidateCache();  // routes were cached before the attach
  client::ReadOptions stale_opts;
  stale_opts.allow_stale = true;
  auto served = client->Get("t", 0, Key(1), stale_opts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_NE(served->snapshot_ts, 0u);
  auto since = [](const obs::MetricsSnapshot& before, const char* name) {
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().Delta(before);
    const obs::MetricPoint* point = delta.Find(name);
    return point != nullptr ? point->count : 0;
  };

  // The replica's NotFound is the answer (its snapshot is prefix-consistent),
  // not a reason to fall back to the primary.
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(client->Get("t", 0, Key(2), stale_opts).status().IsNotFound());
  EXPECT_EQ(since(before, "client.replica.redirects"), 1u);
  EXPECT_EQ(since(before, "client.replica.fallbacks"), 0u);

  ASSERT_TRUE(m->DropReplicas(uids[0]).ok());
  before = obs::MetricsRegistry::Global().Snapshot();
  for (int i = 0; i < 2; i++) {
    auto read = client->Get("t", 0, Key(1), stale_opts);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->snapshot_ts, 0u);
    EXPECT_EQ(read->value(), "v1");
  }
  // Only the first read met the detached replica; the second routed by the
  // reloaded layout, which lists no replica.
  EXPECT_EQ(since(before, "client.replica.fallbacks"), 1u);
  EXPECT_EQ(since(before, "client.route.cache_misses"), 1u);
}

// I6 under chaos: replica crashes/restarts race server and master faults
// while 40% of reads are stale-tolerant. Every replica-served read must be a
// prefix-consistent snapshot of the primary's history, and the whole run —
// replica routing decisions included — must replay bit-identically.
TEST(ReplicaNemesisTest, StaleReadsHoldI6Deterministically) {
  fault::NemesisOptions options;
  options.num_nodes = 5;
  options.num_masters = 2;
  options.seed = 909;
  options.rounds = 250;
  options.num_replicas = 2;
  fault::FaultPlan plan;
  plan.Crash(90 * 1000, 2)
      .CrashMaster(180 * 1000, 0)
      .Restart(260 * 1000, 2)
      .RestartMaster(420 * 1000, 0);

  auto first = fault::RunNemesis(options, plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->violations.empty()) << first->ToString();
  EXPECT_GT(first->ops_acked, 0);
  EXPECT_GT(first->stale_reads_served, 0) << first->ToString();

  auto second = fault::RunNemesis(options, plan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->violations.empty()) << second->ToString();
  EXPECT_EQ(first->schedule, second->schedule);
  EXPECT_EQ(first->table_digest, second->table_digest) << first->ToString();
  EXPECT_EQ(first->ops_acked, second->ops_acked);
  EXPECT_EQ(first->stale_reads_served, second->stale_reads_served);
  EXPECT_EQ(first->stale_read_fallbacks, second->stale_read_fallbacks);
}

}  // namespace
}  // namespace logbase::replica

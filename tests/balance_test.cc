// Elastic load balancing (src/balance/): load reports, placement scoring,
// live log-based migration (checkpoint-bounded replay, fencing, client
// re-routing), hot-tablet splitting, the policy loop, the reassignment
// intent codec, and crash recovery of migrations, splits and failure
// adoptions across master failovers.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/balance/balancer.h"
#include "src/balance/placement.h"
#include "src/cluster/mini_cluster.h"
#include "src/master/meta_codec.h"
#include "src/obs/metrics.h"

namespace logbase::balance {
namespace {

using master::MigrationStep;
using master::MigrationStepName;

cluster::MiniClusterOptions SmallCluster(int nodes = 3, int masters = 1) {
  cluster::MiniClusterOptions options;
  options.num_nodes = nodes;
  options.num_masters = masters;
  options.server_template.segment_bytes = 1 << 20;
  return options;
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

/// Tablets per server according to the master's assignment table.
std::map<int, int> CountsByServer(master::Master* m) {
  std::map<int, int> counts;
  for (const auto& [uid, location] : m->AssignmentsSnapshot()) {
    counts[location.server_id]++;
  }
  return counts;
}

TEST(PlacementTest, PickLeastLoadedOrdersByCountLoadThenId) {
  EXPECT_EQ(PickLeastLoaded({}), -1);
  // Fewest tablets wins regardless of load.
  EXPECT_EQ(PickLeastLoaded({{0, 3, 0.0}, {1, 1, 99.0}, {2, 2, 0.0}}), 1);
  // Equal counts: lowest load wins.
  EXPECT_EQ(PickLeastLoaded({{0, 2, 8.0}, {1, 2, 2.0}, {2, 2, 5.0}}), 1);
  // Full tie: lowest id.
  EXPECT_EQ(PickLeastLoaded({{2, 1, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}}), 0);
}

TEST(PlacementTest, CountImbalance) {
  EXPECT_DOUBLE_EQ(CountImbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(CountImbalance({{0, 2, 0}, {1, 2, 0}}), 1.0);
  EXPECT_DOUBLE_EQ(CountImbalance({{0, 4, 0}, {1, 0, 0}}), 2.0);
}

TEST(LoadReportTest, CollectDrainsPerTabletWindows) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  auto schema =
      cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {"key0050"});
  ASSERT_TRUE(schema.ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());  // left range
  }
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(60 + i), "x", {}).ok());  // right range
  }

  uint64_t writes = 0;
  std::map<std::string, uint64_t> by_uid;
  for (int node = 0; node < cluster.num_nodes(); node++) {
    LoadReport report = cluster.server(node)->CollectLoadReport();
    EXPECT_EQ(report.server_id, node);
    for (const TabletLoad& t : report.tablets) {
      writes += t.write_ops;
      by_uid[t.uid] += t.write_ops;
    }
  }
  EXPECT_EQ(writes, 25u);
  // Two distinct tablets saw writes, with the skew preserved.
  uint64_t max_tablet = 0;
  for (const auto& [uid, n] : by_uid) max_tablet = std::max(max_tablet, n);
  EXPECT_EQ(max_tablet, 20u);

  // The window drained: a second collect reports nothing.
  for (int node = 0; node < cluster.num_nodes(); node++) {
    LoadReport report = cluster.server(node)->CollectLoadReport();
    for (const TabletLoad& t : report.tablets) EXPECT_EQ(t.ops(), 0u);
  }
}

TEST(MigrationTest, MoveTabletKeepsDataAndRoutes) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }

  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string uid = loc->descriptor.uid();
  const int from = loc->server_id;
  const int to = (from + 1) % cluster.num_nodes();

  ASSERT_TRUE(cluster.active_master()->MigrateTablet(uid, to).ok());

  // Assignment flipped and persisted; old owner released the tablet.
  auto moved = cluster.master()->GetAssignment(uid);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->server_id, to);
  EXPECT_EQ(cluster.server(from)->FindTablet(uid), nullptr);
  ASSERT_NE(cluster.server(to)->FindTablet(uid), nullptr);
  EXPECT_FALSE(cluster.server(to)->FindTablet(uid)->sealed());
  // The intent is gone.
  EXPECT_FALSE(cluster.coord()->znodes()->Exists(
      master::meta::ReassignPath(uid)));

  // The same client (stale route cached) reads and writes through the
  // migrated tablet: the source's "unknown tablet" turns into a cache
  // invalidation + retry.
  for (int i = 0; i < 30; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found());
    EXPECT_EQ(r->value(), "v" + std::to_string(i));
  }
  EXPECT_TRUE(client->Put("t", 0, Key(1), "after-move", {}).ok());
}

TEST(MigrationTest, ReplayIsCheckpointBounded) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(cluster.server(loc->server_id)->Checkpoint().ok());
  for (int i = 100; i < 115; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());
  }

  // Adopt on another server directly: replay must cover only the log tail
  // past the checkpoint, not the whole history.
  const int to = (loc->server_id + 1) % cluster.num_nodes();
  tablet::RecoveryStats stats;
  ASSERT_TRUE(cluster.server(to)
                  ->AdoptTablet(loc->descriptor,
                                static_cast<uint32_t>(loc->server_id), &stats)
                  .ok());
  EXPECT_TRUE(stats.loaded_checkpoint);
  EXPECT_GE(stats.checkpoint_entries, 100u);
  EXPECT_GE(stats.redo_records, 15u);
  EXPECT_LT(stats.redo_records, 100u);
  (void)cluster.server(to)->CloseTablet(loc->descriptor.uid());
}

TEST(MigrationTest, SealedTabletRejectsWritesUntilUnsealed) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  tablet::TabletServer* server = cluster.server(loc->server_id);
  const std::string uid = loc->descriptor.uid();

  ASSERT_TRUE(server->Put(uid, Slice(Key(0)), Slice("pre")).ok());
  ASSERT_TRUE(server->SealTablet(uid).ok());
  Status s = server->Put(uid, Slice(Key(0)), Slice("x"));
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_NE(s.ToString().find("tablet sealed"), std::string::npos);
  // Reads still serve while sealed (the handover window is read-available).
  auto read = server->Get(uid, Slice(Key(0)));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, "pre");
  ASSERT_TRUE(server->UnsealTablet(uid).ok());
  EXPECT_TRUE(server->Put(uid, Slice(Key(0)), Slice("x")).ok());
}

TEST(SplitTest, SplitPreservesDataAndScans) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 60; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  // A second client scans before the split and caches the one-tablet layout.
  auto scanner = cluster.NewClient(1);
  auto before = scanner->Scan("t", 0, "", "", client::ReadOptions{});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->size(), 60u);
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string parent_uid = loc->descriptor.uid();
  auto split_key = cluster.server(loc->server_id)->SuggestSplitKey(parent_uid);
  ASSERT_TRUE(split_key.ok());

  const int right_target = (loc->server_id + 1) % cluster.num_nodes();
  ASSERT_TRUE(cluster.active_master()
                  ->SplitTablet(parent_uid, *split_key, right_target)
                  .ok());

  // Parent assignment replaced by two children covering the halves.
  EXPECT_FALSE(cluster.master()->GetAssignment(parent_uid).ok());
  auto all = cluster.master()->LocateAll("t", 0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].descriptor.end_key, *split_key);
  EXPECT_EQ((*all)[1].descriptor.start_key, *split_key);
  EXPECT_EQ((*all)[1].server_id, right_target);

  // Every row reads back; a full scan sees all 60 across both children.
  for (int i = 0; i < 60; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found()) << Key(i);
    EXPECT_EQ(r->value(), "v" + std::to_string(i));
  }
  auto rows = client->Scan("t", 0, "", "", client::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 60u);
  // The scanner's layout still names the retired parent: its scan meets the
  // stale route, drops the layout and re-plans over both children.
  auto stale_layout = scanner->Scan("t", 0, "", "", client::ReadOptions{});
  ASSERT_TRUE(stale_layout.ok()) << stale_layout.status().ToString();
  EXPECT_EQ(stale_layout->size(), 60u);
  // Writes land on the correct child and survive.
  ASSERT_TRUE(client->Put("t", 0, Key(5), "post-split", {}).ok());
  ASSERT_TRUE(client->Put("t", 0, Key(55), "post-split", {}).ok());
}

TEST(SplitTest, ChildrenSeedFromOneReadOfTheOwnersCheckpoint) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string parent_uid = loc->descriptor.uid();
  auto split_key = cluster.server(loc->server_id)->SuggestSplitKey(parent_uid);
  ASSERT_TRUE(split_key.ok());

  // DFS bytes read while the children are rebuilt: the step after the
  // owner's checkpoint up to the children's adoption.
  obs::Counter* pread = obs::MetricsRegistry::Global().counter("dfs.pread.bytes");
  uint64_t at_checkpoint = 0, adopted_read = 0;
  cluster.active_master()->set_step_hook([&](MigrationStep step) {
    if (step == MigrationStep::kCheckpointFlushed) {
      at_checkpoint = pread->value();
    } else if (step == MigrationStep::kDestAdopted) {
      adopted_read = pread->value() - at_checkpoint;
    }
  });
  const int right_target = (loc->server_id + 1) % cluster.num_nodes();
  ASSERT_TRUE(cluster.active_master()
                  ->SplitTablet(parent_uid, *split_key, right_target)
                  .ok());
  cluster.active_master()->set_step_hook(nullptr);

  auto file = cluster.dfs()->Open(
      tablet::TabletServer::CheckpointDirFor(loc->server_id) + "/CHECKPOINT",
      0);
  ASSERT_TRUE(file.ok());
  const uint64_t checkpoint_bytes = (*file)->Size();
  // One read of the file seeds both children; the log tail past the
  // checkpoint is empty (the parent was sealed first).
  EXPECT_GE(adopted_read, checkpoint_bytes);
  EXPECT_LT(adopted_read, 2 * checkpoint_bytes);
  for (int i = 0; i < 200; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found()) << Key(i);
  }
}

TEST(SplitTest, SplitSurvivesServerRestart) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string parent_uid = loc->descriptor.uid();
  const int owner = loc->server_id;
  auto split_key = cluster.server(owner)->SuggestSplitKey(parent_uid);
  ASSERT_TRUE(split_key.ok());
  const int right_target = (owner + 1) % cluster.num_nodes();
  ASSERT_TRUE(cluster.active_master()
                  ->SplitTablet(parent_uid, *split_key, right_target)
                  .ok());
  // Post-split writes that only the children's recovery can replay.
  ASSERT_TRUE(client->Put("t", 0, Key(2), "post-split", {}).ok());
  ASSERT_TRUE(client->Put("t", 0, Key(38), "post-split", {}).ok());

  cluster.CrashServer(owner);
  cluster.CrashServer(right_target);
  tablet::RecoveryStats owner_stats;
  ASSERT_TRUE(cluster.RestartServer(owner, &owner_stats).ok());
  ASSERT_TRUE(cluster.RestartServer(right_target).ok());
  // The owner re-checkpointed after closing the parent, so its recovery
  // reloads the left child alone, not the parent's 40 rows beside it.
  EXPECT_LT(owner_stats.checkpoint_entries, 40u);

  // The parent must not resurrect next to its children.
  for (int node : {owner, right_target}) {
    for (const tablet::TabletDescriptor& d : cluster.server(node)->Tablets()) {
      EXPECT_NE(d.uid(), parent_uid);
    }
  }
  auto r = client->Get("t", 0, Key(2), client::ReadOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->value(), "post-split");
  r = client->Get("t", 0, Key(38), client::ReadOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value(), "post-split");
  auto rows = client->Scan("t", 0, "", "", client::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 40u);
}

TEST(BalancerTest, MigratesLoadOffHotServer) {
  cluster::MiniClusterOptions options = SmallCluster();
  options.balancer.enable_splits = false;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {"key0050"}).ok());
  auto client = cluster.NewClient(0);
  // All traffic on the left range: its server becomes the hot spot.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i % 50), "x", {}).ok());
  }
  auto hot_loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(hot_loc.ok());

  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().migrations, 1u);

  auto moved = cluster.master()->GetAssignment(hot_loc->descriptor.uid());
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(moved->server_id, hot_loc->server_id);
  // Data survives the move.
  auto r = client->Get("t", 0, Key(3), client::ReadOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found());
}

TEST(BalancerTest, SplitsDominantTablet) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i % 80), "x", {}).ok());
  }
  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().splits, 1u);
  auto all = cluster.master()->LocateAll("t", 0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  // The two halves ended up on different servers — that was the point.
  EXPECT_NE((*all)[0].server_id, (*all)[1].server_id);
  for (int i = 0; i < 80; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found());
  }
}

TEST(BalancerTest, NoopWhenBalancedOrCold) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()
                  ->CreateTable("t", {"v"}, {{"v"}}, {"key0033", "key0066"})
                  .ok());
  // Cold cluster: no ops at all.
  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().migrations, 0u);
  EXPECT_EQ(cluster.balancer()->stats().splits, 0u);

  // Evenly loaded: still no action.
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i % 100), "x", {}).ok());
  }
  ASSERT_TRUE(cluster.balancer()->Tick().ok());
  EXPECT_EQ(cluster.balancer()->stats().migrations, 0u);
  EXPECT_EQ(cluster.balancer()->stats().splits, 0u);
}

/// Every tablet is hosted, unsealed, by exactly the server its assignment
/// names: a split parent never comes back next to its children, and a
/// migrated tablet never lives on two servers.
void ExpectHostedAsAssigned(cluster::MiniCluster* cluster, master::Master* m) {
  std::set<std::pair<int, std::string>> assigned;
  for (const auto& [uid, location] : m->AssignmentsSnapshot()) {
    assigned.emplace(location.server_id, uid);
  }
  std::set<std::pair<int, std::string>> hosted;
  for (int node = 0; node < cluster->num_nodes(); node++) {
    tablet::TabletServer* server = cluster->server(node);
    for (const tablet::TabletDescriptor& d : server->Tablets()) {
      hosted.emplace(node, d.uid());
      EXPECT_FALSE(server->FindTablet(d.uid())->sealed()) << d.uid();
    }
  }
  EXPECT_EQ(hosted, assigned);
}

// Crash the active master after a chosen protocol step of a migration
// (StandbyReconcilesToOneOwner), a split (StandbyReconcilesSplit) or the
// failure adoption of a dead owner's tablet
// (StandbyReconcilesFailureAdoption); the standby must reconcile the
// surviving intent to one owner per key range, and restarting the live
// owner and the child servers must not undo that.
enum class Move { kMigrate, kSplit, kAdopt };

class FailoverMidMigrationTest
    : public ::testing::TestWithParam<MigrationStep> {
 protected:
  void CrashAndReconcile(Move move);
};

void FailoverMidMigrationTest::CrashAndReconcile(Move move) {
  const MigrationStep crash_after = GetParam();
  const bool split = move == Move::kSplit;
  cluster::MiniCluster cluster(SmallCluster(3, /*masters=*/2));
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* first = cluster.active_master();
  ASSERT_EQ(first, cluster.masters(0));
  ASSERT_TRUE(first->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = first->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string uid = loc->descriptor.uid();
  const int owner = loc->server_id;
  const int target = (owner + 1) % cluster.num_nodes();
  std::string split_key;
  if (split) {
    auto key = cluster.server(owner)->SuggestSplitKey(uid);
    ASSERT_TRUE(key.ok());
    split_key = *key;
  }

  first->set_step_hook([&](MigrationStep step) {
    if (step == crash_after) cluster.CrashMaster(0);
  });
  // A dead source skips the source steps: a hook there never fires, the
  // adoption completes, and the master crashes only afterwards.
  const bool source_step = crash_after == MigrationStep::kSourceSealed ||
                           crash_after == MigrationStep::kCheckpointFlushed ||
                           crash_after == MigrationStep::kSourceClosed;
  const bool runs = move != Move::kAdopt || !source_step;
  Status s;
  if (move == Move::kAdopt) {
    cluster.CrashServer(owner);
    s = first->DetectAndHandleFailures().status();
  } else {
    s = split ? first->SplitTablet(uid, split_key, target)
              : first->MigrateTablet(uid, target);
  }
  EXPECT_EQ(s.ok(), !runs) << s.ToString();  // leadership lost mid-protocol
  if (!runs) cluster.CrashMaster(0);

  // Standby takes over and reconciles the intent.
  master::Master* active = cluster.active_master();
  ASSERT_NE(active, nullptr);
  ASSERT_EQ(active, cluster.masters(1));
  EXPECT_FALSE(cluster.coord()->znodes()->Exists(
      master::meta::ReassignPath(uid)));

  const bool committed =
      !runs || crash_after >= MigrationStep::kAssignmentFlipped;
  auto all = active->LocateAll("t", 0);
  ASSERT_TRUE(all.ok());
  if (split && committed) {
    EXPECT_FALSE(active->GetAssignment(uid).ok());
    ASSERT_EQ(all->size(), 2u);
    EXPECT_EQ((*all)[0].server_id, owner);
    EXPECT_EQ((*all)[0].descriptor.end_key, split_key);
    EXPECT_EQ((*all)[1].server_id, target);
    EXPECT_EQ((*all)[1].descriptor.start_key, split_key);
  } else if (move == Move::kAdopt) {
    ASSERT_EQ(all->size(), 1u);
    EXPECT_EQ((*all)[0].descriptor.uid(), uid);
    EXPECT_EQ((*all)[0].server_id != owner, committed);
    // The standby adopts whatever the crash left on the dead owner.
    auto handled = active->DetectAndHandleFailures();
    ASSERT_TRUE(handled.ok()) << handled.status().ToString();
    EXPECT_EQ(*handled, committed ? 0 : 1);
  } else {
    ASSERT_EQ(all->size(), 1u);
    EXPECT_EQ((*all)[0].descriptor.uid(), uid);
    EXPECT_EQ((*all)[0].server_id, committed && !split ? target : owner);
  }
  ExpectHostedAsAssigned(&cluster, active);

  // No acked write was lost, and new writes flow.
  auto expect_rows = [&](const std::string& first_value) {
    for (int i = 0; i < 25; i++) {
      auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->found()) << Key(i);
      EXPECT_EQ(r->value(), i == 0 ? first_value : "v" + std::to_string(i));
    }
  };
  expect_rows("v0");
  ASSERT_TRUE(client->Put("t", 0, Key(0), "post-failover", {}).ok());

  // The reconciled state is durable in the servers' own recovery metadata.
  // A committed split re-checkpointed the owner after closing the parent,
  // so the owner reloads the left child alone, not the parent's 25 rows. An
  // adopter checkpointed before its assignment was persisted, so a restart
  // rebuilds the adopted tablet; the dead owner stays down.
  if (move == Move::kAdopt) {
    auto adopted = active->GetAssignment(uid);
    ASSERT_TRUE(adopted.ok());
    ASSERT_NE(adopted->server_id, owner);
    cluster.CrashServer(adopted->server_id);
    ASSERT_TRUE(cluster.RestartServer(adopted->server_id).ok());
  } else {
    cluster.CrashServer(owner);
    cluster.CrashServer(target);
    tablet::RecoveryStats owner_stats;
    ASSERT_TRUE(cluster.RestartServer(owner, &owner_stats).ok());
    ASSERT_TRUE(cluster.RestartServer(target).ok());
    if (split && committed) {
      EXPECT_LT(owner_stats.checkpoint_entries, 25u);
    }
  }
  ExpectHostedAsAssigned(&cluster, active);
  expect_rows("post-failover");
}

TEST_P(FailoverMidMigrationTest, StandbyReconcilesToOneOwner) {
  CrashAndReconcile(Move::kMigrate);
}

TEST_P(FailoverMidMigrationTest, StandbyReconcilesSplit) {
  CrashAndReconcile(Move::kSplit);
}

TEST_P(FailoverMidMigrationTest, StandbyReconcilesFailureAdoption) {
  CrashAndReconcile(Move::kAdopt);
}

INSTANTIATE_TEST_SUITE_P(
    Steps, FailoverMidMigrationTest,
    ::testing::Values(MigrationStep::kIntentPersisted,
                      MigrationStep::kSourceSealed,
                      MigrationStep::kCheckpointFlushed,
                      MigrationStep::kDestAdopted,
                      MigrationStep::kAssignmentFlipped,
                      MigrationStep::kSourceClosed),
    [](const ::testing::TestParamInfo<MigrationStep>& info) {
      std::string name = MigrationStepName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ReassignTest, SecondReassignmentOfOneTabletIsBusy) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto client = cluster.NewClient(0);
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "v" + std::to_string(i), {}).ok());
  }
  auto loc = cluster.master()->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string uid = loc->descriptor.uid();
  const int owner = loc->server_id;
  const int to = (owner + 1) % cluster.num_nodes();
  auto split_key = cluster.server(owner)->SuggestSplitKey(uid);
  ASSERT_TRUE(split_key.ok());

  // A split of the same tablet, started after every step of a migration
  // that is still in flight, must be refused: both share one intent.
  master::Master* m = cluster.active_master();
  std::vector<Status> refused;
  m->set_step_hook([&](MigrationStep step) {
    if (step == MigrationStep::kIntentCleared) return;
    refused.push_back(m->SplitTablet(uid, *split_key, owner));
  });
  Status s = m->MigrateTablet(uid, to);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(refused.size(), 6u);
  for (const Status& r : refused) EXPECT_TRUE(r.IsBusy()) << r.ToString();

  // The migration finished as if alone.
  auto all = cluster.master()->LocateAll("t", 0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].descriptor.uid(), uid);
  EXPECT_EQ((*all)[0].server_id, to);
  ExpectHostedAsAssigned(&cluster, cluster.master());
  for (int i = 0; i < 30; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value(), "v" + std::to_string(i));
  }
}

TEST(ReassignTest, MigrateOrSplitOfDownOwnerIsUnavailable) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  master::Master* m = cluster.active_master();
  auto loc = m->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string uid = loc->descriptor.uid();
  const int owner = loc->server_id;
  const int to = (owner + 1) % cluster.num_nodes();

  // A dead owner's tablets move through failure handling; the balancer's
  // entry points refuse them before writing an intent.
  cluster.CrashServer(owner);
  Status s = m->MigrateTablet(uid, to);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  s = m->SplitTablet(uid, Key(10), to);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_FALSE(cluster.coord()->znodes()->Exists(
      master::meta::ReassignPath(uid)));
  auto assignment = m->GetAssignment(uid);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->server_id, owner);
}

TEST(ReassignTest, StandbyDropsUndecodableIntent) {
  cluster::MiniCluster cluster(SmallCluster(3, /*masters=*/2));
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* first = cluster.active_master();
  ASSERT_TRUE(first->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto loc = first->Locate("t", 0, Slice(Key(0)));
  ASSERT_TRUE(loc.ok());
  const std::string uid = loc->descriptor.uid();

  // A truncated intent for a live tablet: the standby can neither roll it
  // forward nor back, so it deletes it and leaves the tablet where it is.
  std::string intent = master::meta::EncodeReassignIntent(
      loc->server_id, loc->descriptor,
      {master::TabletLocation{loc->descriptor,
                              (loc->server_id + 1) % cluster.num_nodes()}});
  intent.resize(intent.size() / 2);
  coord::ZnodeTree* znodes = cluster.coord()->znodes();
  ASSERT_TRUE(znodes
                  ->Create(first->session(), master::meta::kMetaReassign, "",
                           coord::CreateMode::kPersistent)
                  .ok());
  ASSERT_TRUE(znodes
                  ->Create(first->session(), master::meta::ReassignPath(uid),
                           intent, coord::CreateMode::kPersistent)
                  .ok());
  cluster.CrashMaster(0);

  master::Master* active = cluster.active_master();
  ASSERT_EQ(active, cluster.masters(1));
  EXPECT_FALSE(znodes->Exists(master::meta::ReassignPath(uid)));
  auto assignment = active->GetAssignment(uid);
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment->server_id, loc->server_id);
  ExpectHostedAsAssigned(&cluster, active);
}

TEST(ReassignIntentTest, RoundTripsChildren) {
  tablet::TabletDescriptor parent;
  parent.table_id = 7;
  parent.table_name = "orders";
  parent.column_group = 1;
  parent.range_id = 3;
  parent.start_key = "b";
  parent.end_key = "m";
  master::TabletLocation left{parent, 5};
  left.descriptor.range_id = 8;
  left.descriptor.end_key = "g";
  master::TabletLocation right{parent, 2};
  right.descriptor.range_id = 9;
  right.descriptor.start_key = "g";

  std::string intent =
      master::meta::EncodeReassignIntent(5, parent, {left, right});
  int owner = -1;
  tablet::TabletDescriptor decoded_parent;
  std::vector<master::TabletLocation> children;
  ASSERT_TRUE(master::meta::DecodeReassignIntent(Slice(intent), &owner,
                                                 &decoded_parent, &children));
  EXPECT_EQ(owner, 5);
  EXPECT_EQ(decoded_parent.uid(), parent.uid());
  EXPECT_EQ(decoded_parent.table_name, "orders");
  EXPECT_EQ(decoded_parent.start_key, "b");
  EXPECT_EQ(decoded_parent.end_key, "m");
  ASSERT_EQ(children.size(), 2u);
  for (size_t i = 0; i < 2; i++) {
    const master::TabletLocation& want = i == 0 ? left : right;
    EXPECT_EQ(children[i].server_id, want.server_id);
    EXPECT_EQ(children[i].descriptor.uid(), want.descriptor.uid());
    EXPECT_EQ(children[i].descriptor.table_name, "orders");
    EXPECT_EQ(children[i].descriptor.start_key, want.descriptor.start_key);
    EXPECT_EQ(children[i].descriptor.end_key, want.descriptor.end_key);
  }
}

TEST(ReassignIntentTest, RejectsTruncatedInput) {
  tablet::TabletDescriptor parent;
  parent.table_id = 7;
  parent.table_name = "orders";
  std::string intent = master::meta::EncodeReassignIntent(
      1, parent, {master::TabletLocation{parent, 2}});
  int owner = -1;
  tablet::TabletDescriptor decoded;
  std::vector<master::TabletLocation> children;
  ASSERT_TRUE(master::meta::DecodeReassignIntent(Slice(intent), &owner,
                                                 &decoded, &children));
  for (size_t n = 0; n < intent.size(); n++) {
    EXPECT_FALSE(master::meta::DecodeReassignIntent(
        Slice(intent.data(), n), &owner, &decoded, &children))
        << "prefix of " << n << " bytes";
  }
}

TEST(FailoverScatterTest, DeadServersTabletsSpreadAcrossSurvivors) {
  cluster::MiniCluster cluster(SmallCluster(5));
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<std::string> splits;
  for (int i = 1; i < 10; i++) splits.push_back(Key(i * 10));
  ASSERT_TRUE(
      cluster.master()->CreateTable("t", {"v"}, {{"v"}}, splits).ok());
  // 10 ranges over 5 servers: 2 tablets each.
  auto before = CountsByServer(cluster.master());
  ASSERT_EQ(before.size(), 5u);
  for (const auto& [server, count] : before) EXPECT_EQ(count, 2);

  auto client = cluster.NewClient(0);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client->Put("t", 0, Key(i), "x", {}).ok());
  }

  cluster.CrashServer(4);
  auto handled = cluster.master()->DetectAndHandleFailures();
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(*handled, 1);

  // The dead server's two tablets scattered to two *different* survivors
  // (round-robin from a fixed origin would also do this, but load-scored
  // placement must: each adoption bumps the target's count).
  auto after = CountsByServer(cluster.master());
  EXPECT_EQ(after.count(4), 0u);
  int total = 0;
  int max_count = 0;
  for (const auto& [server, count] : after) {
    total += count;
    max_count = std::max(max_count, count);
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(max_count, 3);  // 3,3,2,2 — not 4,2,2,2

  for (int i = 0; i < 100; i++) {
    auto r = client->Get("t", 0, Key(i), client::ReadOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found());
  }
}

TEST(PlacementAwareMasterTest, NewTablesAvoidLoadedServers) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  // Three single-tablet tables land on three different servers (the old
  // modulo placement would have stacked them all on server 0).
  std::set<int> used;
  for (const std::string& name : {"a", "b", "c"}) {
    ASSERT_TRUE(cluster.master()->CreateTable(name, {"v"}, {{"v"}}, {}).ok());
    auto all = cluster.master()->LocateAll(name, 0);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), 1u);
    used.insert((*all)[0].server_id);
  }
  EXPECT_EQ(used.size(), 3u);
}

TEST(PlacementAwareMasterTest, AddColumnGroupColocatesWithExistingRanges) {
  cluster::MiniCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.master()
                  ->CreateTable("t", {"a", "b"}, {{"a"}}, {"key0050"})
                  .ok());
  ASSERT_TRUE(cluster.master()->AddColumnGroup("t", {"b"}).ok());
  auto g0 = cluster.master()->LocateAll("t", 0);
  auto g1 = cluster.master()->LocateAll("t", 1);
  ASSERT_TRUE(g0.ok());
  ASSERT_TRUE(g1.ok());
  ASSERT_EQ(g0->size(), g1->size());
  for (size_t i = 0; i < g0->size(); i++) {
    EXPECT_EQ((*g0)[i].server_id, (*g1)[i].server_id);
  }
}

}  // namespace
}  // namespace logbase::balance

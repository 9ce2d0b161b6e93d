// Integration tests: master (DDL, routing, failure handling), client
// (routing cache, row operations, transactions) and the mini-cluster
// end-to-end, including node failures with DFS re-replication.

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <utility>

#include "src/cluster/mini_cluster.h"
#include "src/obs/metrics.h"
#include "src/sim/sim_context.h"

namespace logbase::cluster {
namespace {

MiniClusterOptions SmallCluster(int nodes = 3) {
  MiniClusterOptions options;
  options.num_nodes = nodes;
  options.server_template.segment_bytes = 1 << 20;
  return options;
}

struct ClusterFixture {
  std::unique_ptr<MiniCluster> cluster;
  std::unique_ptr<client::LogBaseClient> client;

  explicit ClusterFixture(int nodes = 3) {
    cluster = std::make_unique<MiniCluster>(SmallCluster(nodes));
    EXPECT_TRUE(cluster->Start().ok());
    client = cluster->NewClient(0);
  }

  Status CreateUsersTable(int splits = 2) {
    std::vector<std::string> split_keys;
    for (int i = 1; i <= splits; i++) {
      split_keys.push_back("user" + std::to_string(i * 3));
    }
    return cluster->master()
        ->CreateTable("users", {"name", "email", "bio"},
                      {{"name", "email"}, {"bio"}}, split_keys)
        .status();
  }
};

TEST(MasterTest, CreateTableAssignsTablets) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  auto schema = f.cluster->master()->GetTable("users");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->groups.size(), 2u);
  // 2 groups x 3 ranges = 6 tablets, all assigned.
  auto locations = f.cluster->master()->LocateAll("users", 0);
  ASSERT_TRUE(locations.ok());
  EXPECT_EQ(locations->size(), 3u);
  for (const auto& location : *locations) {
    EXPECT_GE(location.server_id, 0);
    EXPECT_LT(location.server_id, 3);
  }
}

TEST(MasterTest, DuplicateTableRejected) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  EXPECT_TRUE(f.CreateUsersTable().IsInvalidArgument());
}

TEST(MasterTest, SameRangeColocatesAcrossGroups) {
  // Entity-group clustering (§3.2): the same key range of every column
  // group lives on the same server, keeping row transactions single-server.
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  auto g0 = f.cluster->master()->LocateAll("users", 0);
  auto g1 = f.cluster->master()->LocateAll("users", 1);
  ASSERT_EQ(g0->size(), g1->size());
  for (size_t i = 0; i < g0->size(); i++) {
    EXPECT_EQ((*g0)[i].server_id, (*g1)[i].server_id);
  }
}

TEST(MasterTest, LocateRoutesByRange) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());  // splits at user3, user6
  auto low = f.cluster->master()->Locate("users", 0, "user1");
  auto mid = f.cluster->master()->Locate("users", 0, "user4");
  auto high = f.cluster->master()->Locate("users", 0, "user9");
  ASSERT_TRUE(low.ok() && mid.ok() && high.ok());
  EXPECT_EQ(low->descriptor.range_id, 0u);
  EXPECT_EQ(mid->descriptor.range_id, 1u);
  EXPECT_EQ(high->descriptor.range_id, 2u);
  // Boundary key belongs to the right-hand range (start inclusive).
  EXPECT_EQ(f.cluster->master()->Locate("users", 0, "user3")
                ->descriptor.range_id,
            1u);
}

TEST(MasterTest, AddColumnGroup) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  ASSERT_TRUE(
      f.cluster->master()->AddColumnGroup("users", {"last_login"}).ok());
  auto schema = f.cluster->master()->GetTable("users");
  EXPECT_EQ(schema->groups.size(), 3u);
  auto locations = f.cluster->master()->LocateAll("users", 2);
  EXPECT_EQ(locations->size(), 3u);
}

TEST(MasterTest, ElectionProducesActiveMaster) {
  ClusterFixture f;
  EXPECT_TRUE(f.cluster->master()->IsActiveMaster());
}

TEST(ClientTest, PutGetThroughRouting) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  for (int i = 0; i < 10; i++) {
    std::string key = "user" + std::to_string(i);
    ASSERT_TRUE(f.client->Put("users", 0, key, "value" + std::to_string(i), {})
                    .ok());
  }
  for (int i = 0; i < 10; i++) {
    std::string key = "user" + std::to_string(i);
    auto value = f.client->Get("users", 0, key, client::ReadOptions{});
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(value->value(), "value" + std::to_string(i));
  }
}

TEST(ClientTest, DeleteThroughClient) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  ASSERT_TRUE(f.client->Put("users", 0, "user5", "v", {}).ok());
  ASSERT_TRUE(f.client->Delete("users", 0, "user5", {}).ok());
  EXPECT_TRUE(f.client->Get("users", 0, "user5", client::ReadOptions{})
                  .status()
                  .IsNotFound());
}

TEST(ClientTest, PutBatchSpansTabletsAndDeletes) {
  // One WriteBatch mixing puts across tablet boundaries (splits at user3 and
  // user6), column groups, deletes, and same-key sequences. The client ships
  // each maximal same-tablet run, puts and deletes mixed, as one server-side
  // batch; insertion order must still be what the reader observes.
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  ASSERT_TRUE(f.client->Put("users", 0, "user5", "stale", {}).ok());
  ASSERT_TRUE(f.client->Put("users", 0, "user6", "stale", {}).ok());

  client::WriteBatch batch;
  batch.Put(0, "user1", "v1")
      .Put(0, "user2", "v2")     // same tablet as user1: one run
      .Put(0, "user4", "v4")     // crosses the user3 split
      .Delete(0, "user5")        // same tablet as user4: joins its run
      .Put(0, "user7", "v7")     // crosses the user6 split
      .Put(1, "user1", "bio1")   // different column group
      .Put(0, "user9", "early")  // back to user7's tablet: a new run
      .Put(0, "user9", "late")   // same key twice: later op wins
      .Put(0, "user8", "first")  // put, delete, put of one key
      .Delete(0, "user8")
      .Put(0, "user8", "second")
      .Delete(0, "user6")        // delete, then put, of an existing key
      .Put(0, "user6", "reborn");
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(f.client->PutBatch("users", batch, {}).ok());
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().Delta(before);

  // Five runs, five log submissions: the deletes ride their runs.
  const obs::MetricPoint* submissions = delta.Find("log.append.batch_records");
  ASSERT_NE(submissions, nullptr);
  EXPECT_EQ(submissions->count, 5u);
  EXPECT_EQ(submissions->sum, static_cast<double>(batch.size()));

  for (auto [key, want] : std::initializer_list<
           std::pair<const char*, const char*>>{
           {"user1", "v1"}, {"user2", "v2"}, {"user4", "v4"},
           {"user7", "v7"}, {"user9", "late"}, {"user8", "second"},
           {"user6", "reborn"}}) {
    auto value = f.client->Get("users", 0, key, client::ReadOptions{});
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(value->value(), want) << key;
  }
  EXPECT_EQ(f.client->Get("users", 1, "user1", client::ReadOptions{})->value(),
            "bio1");
  EXPECT_TRUE(f.client->Get("users", 0, "user5", client::ReadOptions{})
                  .status()
                  .IsNotFound());
}

TEST(ClientTest, WriteDeadlineCapsRetries) {
  // WriteOptions::deadline_us caps the retry policy's backoff budget: against
  // a crashed server, a deadline-bounded write gives up within the deadline
  // while an unbounded one burns the full exponential-backoff schedule.
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  ASSERT_TRUE(f.client->Put("users", 0, "user1", "v", {}).ok());
  int victim = f.cluster->master()->Locate("users", 0, "user1")->server_id;
  f.cluster->CrashServer(victim);

  sim::VirtualTime t0 = ctx.now();
  Status unbounded = f.client->Put("users", 0, "user1", "w", {});
  sim::VirtualTime unbounded_elapsed = ctx.now() - t0;
  EXPECT_TRUE(unbounded.IsUnavailable()) << unbounded.ToString();

  constexpr sim::VirtualTime kDeadlineUs = 800;
  t0 = ctx.now();
  Status bounded = f.client->Put("users", 0, "user1", "w",
                                 client::WriteOptions{.deadline_us = kDeadlineUs});
  sim::VirtualTime bounded_elapsed = ctx.now() - t0;
  EXPECT_TRUE(bounded.IsUnavailable() || bounded.IsTimedOut())
      << bounded.ToString();
  EXPECT_LE(bounded_elapsed, kDeadlineUs);
  EXPECT_LT(bounded_elapsed, unbounded_elapsed);
}

TEST(ClientTest, ScanSpansTablets) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        f.client->Put("users", 0, "user" + std::to_string(i), "v", {}).ok());
  }
  auto rows =
      f.client->Scan("users", 0, "user2", "user8", client::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);  // user2..user7
  EXPECT_EQ((*rows)[0].key, "user2");
  EXPECT_EQ(rows->back().key, "user7");
}

TEST(ClientTest, HistoricalReads) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  ASSERT_TRUE(f.client->Put("users", 0, "user1", "v1", {}).ok());
  auto v1 = f.client->Get("users", 0, "user1", client::ReadOptions{});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(f.client->Put("users", 0, "user1", "v2", {}).ok());
  auto historical = f.client->Get("users", 0, "user1",
                                  client::ReadOptions{.as_of = v1->timestamp()});
  ASSERT_TRUE(historical.ok());
  EXPECT_EQ(historical->value(), "v1");
  auto versions = f.client->Get("users", 0, "user1",
                                client::ReadOptions{.all_versions = true});
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->rows.size(), 2u);
}

TEST(ClientTest, RowOperationsAcrossColumnGroups) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  std::map<std::string, std::string> row{
      {"name", "Ada"}, {"email", "ada@example.com"}, {"bio", "pioneer"}};
  ASSERT_TRUE(f.client->PutRow("users", "user7", row).ok());
  // Tuple reconstruction collects from both groups (§3.2).
  auto read = f.client->GetRow("users", "user7");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, row);
}

TEST(ClientTest, TransactionsThroughClient) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  ASSERT_TRUE(f.client->Put("users", 0, "user1", "balance:100", {}).ok());
  client::Txn txn = f.client->BeginTxn();
  auto balance = txn.Read("users", 0, "user1");
  ASSERT_TRUE(balance.ok());
  ASSERT_TRUE(txn.Write("users", 0, "user1", "balance:50").ok());
  ASSERT_TRUE(txn.Write("users", 0, "user2", "balance:50").ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(
      f.client->Get("users", 0, "user1", client::ReadOptions{})->value(),
      "balance:50");
  EXPECT_EQ(
      f.client->Get("users", 0, "user2", client::ReadOptions{})->value(),
      "balance:50");
}

TEST(ClusterTest, ServerCrashRecoveryEndToEnd) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  for (int i = 0; i < 9; i++) {
    ASSERT_TRUE(
        f.client->Put("users", 0, "user" + std::to_string(i), "v", {}).ok());
  }
  // Crash and restart every server; data must survive via log recovery.
  for (int node = 0; node < 3; node++) {
    f.cluster->CrashServer(node);
    tablet::RecoveryStats stats;
    ASSERT_TRUE(f.cluster->RestartServer(node, &stats).ok());
  }
  f.client->InvalidateCache();
  for (int i = 0; i < 9; i++) {
    EXPECT_TRUE(f.client
                    ->Get("users", 0, "user" + std::to_string(i),
                          client::ReadOptions{})
                    .ok())
        << i;
  }
}

TEST(ClusterTest, PermanentFailureReassignsTablets) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  for (int i = 0; i < 9; i++) {
    ASSERT_TRUE(
        f.client->Put("users", 0, "user" + std::to_string(i), "v", {}).ok());
  }
  // Find a server hosting at least one tablet and kill it for good.
  auto location = f.cluster->master()->Locate("users", 0, "user1");
  int victim = location->server_id;
  f.cluster->CrashServer(victim);
  auto handled = f.cluster->master()->DetectAndHandleFailures();
  ASSERT_TRUE(handled.ok());
  EXPECT_EQ(*handled, 1);
  // All rows stay readable through the reassigned tablets.
  f.client->InvalidateCache();
  for (int i = 0; i < 9; i++) {
    auto value = f.client->Get("users", 0, "user" + std::to_string(i),
                               client::ReadOptions{});
    EXPECT_TRUE(value.ok()) << "user" << i << ": "
                            << value.status().ToString();
  }
  // And new writes land on the new owners.
  EXPECT_TRUE(f.client->Put("users", 0, "user1", "after failover", {}).ok());
  EXPECT_EQ(
      f.client->Get("users", 0, "user1", client::ReadOptions{})->value(),
      "after failover");
}

TEST(ClusterTest, DataNodeLossToleratedByReplication) {
  ClusterFixture f;
  ASSERT_TRUE(f.CreateUsersTable().ok());
  for (int i = 0; i < 9; i++) {
    ASSERT_TRUE(
        f.client->Put("users", 0, "user" + std::to_string(i), "v", {}).ok());
  }
  // Kill machine 2 entirely (tablet server + data node).
  ASSERT_TRUE(f.cluster->KillNode(2).ok());
  ASSERT_TRUE(f.cluster->master()->DetectAndHandleFailures().ok());
  f.client->InvalidateCache();
  for (int i = 0; i < 9; i++) {
    EXPECT_TRUE(f.client
                    ->Get("users", 0, "user" + std::to_string(i),
                          client::ReadOptions{})
                    .ok())
        << i;
  }
}

TEST(ClusterTest, ScalesToMoreNodes) {
  ClusterFixture f(6);
  std::vector<std::string> splits;
  for (int i = 1; i < 6; i++) splits.push_back("k" + std::to_string(i));
  ASSERT_TRUE(f.cluster->master()
                  ->CreateTable("wide", {"c"}, {{"c"}}, splits)
                  .ok());
  std::set<int> used_servers;
  auto locations = f.cluster->master()->LocateAll("wide", 0);
  for (const auto& location : *locations) {
    used_servers.insert(location.server_id);
  }
  EXPECT_EQ(used_servers.size(), 6u);  // one range per node
  for (int i = 0; i < 30; i++) {
    std::string key = "k" + std::to_string(i % 6) + "-" + std::to_string(i);
    ASSERT_TRUE(f.client->Put("wide", 0, key, "v", {}).ok());
    EXPECT_TRUE(f.client->Get("wide", 0, key, client::ReadOptions{}).ok());
  }
}

}  // namespace
}  // namespace logbase::cluster

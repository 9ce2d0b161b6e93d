// Tests for the workload generators (YCSB, TPC-W), the closed-loop driver
// and the vertical partitioner.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/cluster/mini_cluster.h"
#include "src/core/kv_engine.h"
#include "src/partition/vertical_partitioner.h"
#include "src/workload/driver.h"
#include "src/workload/tpcw.h"
#include "src/workload/ycsb.h"

namespace logbase::workload {
namespace {

TEST(YcsbTest, KeysAreDeterministicAndBounded) {
  YcsbOptions options;
  options.record_count = 100;
  YcsbWorkload w(options);
  std::set<std::string> keys;
  for (uint64_t i = 0; i < 100; i++) {
    std::string key = w.KeyAt(i);
    EXPECT_EQ(key, w.KeyAt(i));
    EXPECT_EQ(key.substr(0, 4), "user");
    keys.insert(key);
  }
  EXPECT_GT(keys.size(), 95u);  // hash collisions are rare
}

TEST(YcsbTest, ValueSizeIsExact) {
  YcsbOptions options;
  options.value_bytes = 1024;
  YcsbWorkload w(options);
  Random rnd(1);
  EXPECT_EQ(w.MakeValue(&rnd).size(), 1024u);
}

TEST(YcsbTest, MixProportionsApproximatelyHonored) {
  YcsbOptions options;
  options.record_count = 1000;
  options.update_proportion = 0.75;
  YcsbWorkload w(options);
  Random rnd(5);
  int updates = 0;
  const int kOps = 10000;
  for (int i = 0; i < kOps; i++) {
    auto op = w.NextOp(&rnd);
    if (op.type == YcsbWorkload::OpType::kUpdate) updates++;
  }
  EXPECT_NEAR(static_cast<double>(updates) / kOps, 0.75, 0.03);
}

TEST(YcsbTest, OpsDrawFromLoadedKeys) {
  YcsbOptions options;
  options.record_count = 50;
  YcsbWorkload w(options);
  std::set<std::string> loaded;
  for (uint64_t i = 0; i < 50; i++) loaded.insert(w.KeyAt(i));
  Random rnd(6);
  for (int i = 0; i < 500; i++) {
    EXPECT_TRUE(loaded.count(w.NextOp(&rnd).key) > 0);
  }
}

TEST(TpcwTest, MixesMatchPaperFractions) {
  EXPECT_DOUBLE_EQ(TpcwUpdateFraction(TpcwMix::kBrowsing), 0.05);
  EXPECT_DOUBLE_EQ(TpcwUpdateFraction(TpcwMix::kShopping), 0.20);
  EXPECT_DOUBLE_EQ(TpcwUpdateFraction(TpcwMix::kOrdering), 0.50);
}

TEST(TpcwTest, TxnShapes) {
  TpcwOptions options;
  TpcwWorkload w(options);
  Random rnd(7);
  int updates = 0;
  for (int i = 0; i < 4000; i++) {
    auto txn = w.NextTxn(&rnd, TpcwMix::kOrdering);
    if (txn.update) {
      updates++;
      EXPECT_TRUE(txn.item_key.empty());
      EXPECT_FALSE(txn.cart_key.empty());
      EXPECT_FALSE(txn.order_key.empty());
      // The order key shares the customer prefix with the cart key
      // (entity-group clustering keeps the txn single-server).
      EXPECT_EQ(txn.cart_key.substr(0, 14), txn.order_key.substr(0, 14));
    } else {
      EXPECT_FALSE(txn.item_key.empty());
    }
  }
  EXPECT_NEAR(updates / 4000.0, 0.5, 0.05);
}

TEST(TpcwTest, OrderKeysUnique) {
  TpcwWorkload w(TpcwOptions{});
  Random rnd(8);
  std::set<std::string> orders;
  for (int i = 0; i < 1000; i++) {
    auto txn = w.NextTxn(&rnd, TpcwMix::kOrdering);
    if (txn.update) {
      EXPECT_TRUE(orders.insert(txn.order_key).second);
    }
  }
}

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

TEST(VerticalPartitionerTest, CoAccessedColumnsGroupTogether) {
  using partition::QueryTrace;
  using partition::VerticalPartitioner;
  // Two query classes: {a, b} together and {c} alone. Optimal grouping
  // separates c so queries on {a,b} never fetch c's bytes and vice versa.
  std::vector<std::string> columns{"a", "b", "c"};
  std::map<std::string, double> widths{{"a", 100}, {"b", 100}, {"c", 1000}};
  std::vector<QueryTrace> workload{{{"a", "b"}, 10.0}, {{"c"}, 10.0}};
  auto grouping = VerticalPartitioner::Partition(columns, widths, workload);
  ASSERT_EQ(grouping.size(), 2u);
  std::set<std::set<std::string>> got;
  for (const auto& group : grouping) {
    got.insert(std::set<std::string>(group.begin(), group.end()));
  }
  EXPECT_TRUE(got.count({"a", "b"}) == 1);
  EXPECT_TRUE(got.count({"c"}) == 1);
}

TEST(VerticalPartitionerTest, SingleQueryWorkloadMergesEverything) {
  using partition::QueryTrace;
  using partition::VerticalPartitioner;
  std::vector<std::string> columns{"a", "b", "c"};
  std::map<std::string, double> widths{{"a", 10}, {"b", 10}, {"c", 10}};
  std::vector<QueryTrace> workload{{{"a", "b", "c"}, 1.0}};
  auto grouping = VerticalPartitioner::Partition(columns, widths, workload);
  // All columns in one group: cost identical to any split, and exhaustive
  // search must not split without benefit... any grouping has equal cost
  // here, so just verify the cost is optimal.
  double cost = VerticalPartitioner::IoCost(grouping, widths, workload);
  EXPECT_DOUBLE_EQ(cost, 30.0);
}

TEST(VerticalPartitionerTest, GreedyMatchesExhaustiveOnSmallSchema) {
  using partition::QueryTrace;
  using partition::VerticalPartitioner;
  std::vector<std::string> columns{"a", "b", "c", "d"};
  std::map<std::string, double> widths{
      {"a", 50}, {"b", 200}, {"c", 10}, {"d", 500}};
  std::vector<QueryTrace> workload{
      {{"a", "c"}, 5.0}, {{"b"}, 3.0}, {{"d"}, 1.0}, {{"a", "b"}, 0.5}};
  partition::VerticalPartitionerOptions exhaustive;
  exhaustive.exhaustive_limit = 8;
  partition::VerticalPartitionerOptions greedy;
  greedy.exhaustive_limit = 0;
  double exhaustive_cost = VerticalPartitioner::IoCost(
      VerticalPartitioner::Partition(columns, widths, workload, exhaustive),
      widths, workload);
  double greedy_cost = VerticalPartitioner::IoCost(
      VerticalPartitioner::Partition(columns, widths, workload, greedy),
      widths, workload);
  EXPECT_LE(exhaustive_cost, greedy_cost);
  EXPECT_LE(greedy_cost, exhaustive_cost * 1.25);  // greedy is near-optimal
}

// ---------------------------------------------------------------------------
// Closed-loop driver on a small real cluster
// ---------------------------------------------------------------------------

struct DriverFixture {
  dfs::Dfs dfs{[] {
    dfs::DfsOptions o;
    o.num_nodes = 3;
    return o;
  }()};
  sim::NetworkModel network{3};
  coord::CoordinationService coord;
  std::vector<std::unique_ptr<tablet::TabletServer>> servers;
  std::vector<std::unique_ptr<core::TabletServerEngine>> engines;
  EngineCluster cluster;

  DriverFixture() {
    for (int i = 0; i < 3; i++) {
      tablet::TabletServerOptions options;
      options.server_id = i;
      servers.push_back(
          std::make_unique<tablet::TabletServer>(options, &dfs, &coord));
      EXPECT_TRUE(servers.back()->Start().ok());
      tablet::TabletDescriptor d;
      d.table_id = 1;
      d.range_id = i;
      EXPECT_TRUE(servers.back()->OpenTablet(d).ok());
      engines.push_back(std::make_unique<core::TabletServerEngine>(
          servers.back().get(), "LogBase"));
      cluster.engines.push_back(engines.back().get());
    }
    cluster.route = HashRouter(3);
    cluster.tablet_uid = [](int node) {
      tablet::TabletDescriptor d;
      d.table_id = 1;
      d.range_id = node;
      return d.uid();
    };
    cluster.network = &network;
  }
};

TEST(DriverTest, LoadThenRunProducesSaneMetrics) {
  DriverFixture f;
  YcsbOptions options;
  options.record_count = 300;
  options.value_bytes = 128;
  YcsbWorkload workload(options);

  auto load = ClosedLoopDriver::Load(f.cluster, /*start=*/0, workload,
                                     /*records_per_node=*/100,
                                     /*batch_size=*/20);
  EXPECT_EQ(load.total_ops, 300u);
  EXPECT_EQ(load.failed_ops, 0u);
  EXPECT_GT(load.virtual_seconds, 0.0);

  // The run phase starts where the load left every disk and NIC idle.
  sim::VirtualTime quiesce = 0;
  for (int i = 0; i < f.dfs.num_nodes(); i++) {
    quiesce = std::max(quiesce,
                       f.dfs.data_node(i)->disk()->resource()->free_at());
  }
  for (sim::NetworkModel* net : {f.dfs.network(), &f.network}) {
    for (int i = 0; net != nullptr && i < net->num_nodes(); i++) {
      quiesce = std::max({quiesce, net->nic_tx(i)->free_at(),
                          net->nic_rx(i)->free_at()});
    }
  }
  ASSERT_GT(quiesce, 0);
  auto run = ClosedLoopDriver::RunYcsb(f.cluster, quiesce, &workload,
                                       /*ops_per_client=*/100);
  EXPECT_EQ(run.total_ops, 300u);
  EXPECT_EQ(run.failed_ops, 0u);
  EXPECT_GT(run.throughput_ops_per_sec, 0.0);
  EXPECT_GT(run.update_latency_us.num(), 0u);
  EXPECT_GT(run.read_latency_us.num(), 0u);
  // Closed loop, measured from the start: the makespan is one client's sum
  // of op latencies, so it is positive and at most the sum over all clients.
  const double latency_sum_us =
      run.read_latency_us.Average() * run.read_latency_us.num() +
      run.update_latency_us.Average() * run.update_latency_us.num();
  EXPECT_GT(run.virtual_seconds, 0.0);
  EXPECT_LE(run.virtual_seconds * 1e6, latency_sum_us + 1);
}

TEST(DriverTest, HashRouterCoversAllNodes) {
  auto route = HashRouter(4);
  std::set<int> seen;
  for (int i = 0; i < 200; i++) {
    int node = route("key" + std::to_string(i));
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 4);
    seen.insert(node);
  }
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace logbase::workload

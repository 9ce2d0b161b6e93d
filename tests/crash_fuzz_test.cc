// Randomized crash-recovery property tests: apply a random op stream
// (puts/overwrites/deletes/checkpoints/compactions) against a tablet server
// and a std::map oracle, crash at random points, recover, and require the
// recovered state to equal the oracle — including multiversion reads.

#include <gtest/gtest.h>

#include <map>

#include "src/dfs/dfs.h"
#include "src/query/plan.h"
#include "src/tablet/tablet_server.h"
#include "src/util/random.h"

namespace logbase::tablet {
namespace {

struct Fixture {
  dfs::Dfs dfs{[] {
    dfs::DfsOptions o;
    o.num_nodes = 3;
    return o;
  }()};
  coord::CoordinationService coord;
  std::unique_ptr<TabletServer> server;
  TabletDescriptor descriptor;
  std::string uid;

  Fixture() {
    TabletServerOptions options;
    options.segment_bytes = 1 << 14;  // small segments: many files
    server = std::make_unique<TabletServer>(options, &dfs, &coord);
    EXPECT_TRUE(server->Start().ok());
    descriptor.table_id = 1;
    uid = descriptor.uid();
    EXPECT_TRUE(server->OpenTablet(descriptor).ok());
  }

  /// Restart as the cluster would: recover, then the master re-registers
  /// the tablet (idempotent when recovery already recreated it).
  void Restart() {
    ASSERT_TRUE(server->Start().ok());
    ASSERT_TRUE(server->OpenTablet(descriptor).ok());
  }
};

class CrashFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzzTest,
                         ::testing::Values(1ull, 42ull, 777ull, 90210ull));

TEST_P(CrashFuzzTest, RecoveredStateMatchesOracle) {
  Fixture f;
  Random rnd(GetParam());
  std::map<std::string, std::string> oracle;

  auto verify = [&]() {
    for (const auto& [key, value] : oracle) {
      auto got = f.server->Get(f.uid, key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(got->value, value) << key;
    }
    // Scan agreement (count + order).
    query::QueryPlan match_all;  // whole range, no predicate, raw values
    auto scanned = f.server->ExecuteScan(f.uid, match_all);
    ASSERT_TRUE(scanned.ok());
    std::vector<ReadRow> rows = RowsFromBatches(scanned->batches);
    ASSERT_EQ(rows.size(), oracle.size());
    auto want = oracle.begin();
    for (const auto& row : rows) {
      EXPECT_EQ(row.key, want->first);
      ++want;
    }
  };

  for (int step = 0; step < 1200; step++) {
    std::string key = "k" + std::to_string(rnd.Uniform(120));
    uint64_t action = rnd.Uniform(100);
    if (action < 55) {
      std::string value = "v" + std::to_string(step);
      ASSERT_TRUE(f.server->Put(f.uid, key, value).ok());
      oracle[key] = value;
    } else if (action < 70) {
      ASSERT_TRUE(f.server->Delete(f.uid, key).ok());
      oracle.erase(key);
    } else if (action < 80) {
      auto got = f.server->Get(f.uid, key);
      auto want = oracle.find(key);
      if (want == oracle.end()) {
        EXPECT_TRUE(got.status().IsNotFound());
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->value, want->second);
      }
    } else if (action < 85) {
      ASSERT_TRUE(f.server->Checkpoint().ok());
    } else if (action < 90) {
      ASSERT_TRUE(f.server->CompactLog().ok());
    } else if (action < 96) {
      // Crash + recover mid-stream.
      f.server->Crash();
      f.Restart();
      verify();
    } else {
      // Double crash (crash during recovery window).
      f.server->Crash();
      f.Restart();
      f.server->Crash();
      f.Restart();
      verify();
    }
  }
  f.server->Crash();
  f.Restart();
  verify();
}

class CompactionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionFuzzTest,
                         ::testing::Values(3ull, 1234ull));

TEST_P(CompactionFuzzTest, MultiversionHistoryConsistentAcrossCompactions) {
  Fixture f;
  Random rnd(GetParam());
  // Track full history: key -> [(ts, value)].
  std::map<std::string, std::vector<std::pair<uint64_t, std::string>>>
      history;
  for (int step = 0; step < 600; step++) {
    std::string key = "k" + std::to_string(rnd.Uniform(30));
    std::string value = "v" + std::to_string(step);
    ASSERT_TRUE(f.server->Put(f.uid, key, value).ok());
    auto read = f.server->Get(f.uid, key);
    ASSERT_TRUE(read.ok());
    history[key].emplace_back(read->timestamp, value);
    if (step % 150 == 149) {
      ASSERT_TRUE(f.server->CompactLog().ok());  // keep all versions
    }
  }
  // Every historical version is readable at its timestamp, even after the
  // pointers were swung to sorted segments.
  for (const auto& [key, versions] : history) {
    for (const auto& [ts, value] : versions) {
      auto got = f.server->Get(f.uid, key, ts);
      ASSERT_TRUE(got.ok()) << key << "@" << ts;
      EXPECT_EQ(got->value, value) << key << "@" << ts;
    }
    auto all = f.server->GetVersions(f.uid, key);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->size(), versions.size()) << key;
  }
}

}  // namespace
}  // namespace logbase::tablet

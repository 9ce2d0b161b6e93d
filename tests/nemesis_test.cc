// Invariant-checked chaos runs: each test drives the nemesis with one named
// fault schedule, runs it twice, and asserts (a) all four invariants hold
// and (b) the two runs replay bit-identically (same delivered schedule,
// same final-table digest).

#include <gtest/gtest.h>

#include "src/fault/nemesis.h"

namespace logbase {
namespace {

using fault::FaultPlan;
using fault::NemesisOptions;
using fault::NemesisReport;
using fault::RunNemesis;

void RunTwiceAndCheck(const NemesisOptions& options, const FaultPlan& plan) {
  auto first = RunNemesis(options, plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->violations.empty()) << first->ToString();
  EXPECT_GT(first->faults_fired, 0);
  EXPECT_GT(first->ops_acked, 0);
  EXPECT_GT(first->cross_server_commits_acked, 0) << first->ToString();

  auto second = RunNemesis(options, plan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->violations.empty()) << second->ToString();
  EXPECT_EQ(first->schedule, second->schedule);
  EXPECT_EQ(first->table_digest, second->table_digest) << first->ToString();
  EXPECT_EQ(first->ops_acked, second->ops_acked);
  EXPECT_EQ(first->cross_server_commits_acked,
            second->cross_server_commits_acked);
}

NemesisOptions BaseOptions(uint64_t seed) {
  NemesisOptions options;
  options.num_nodes = 5;
  options.num_masters = 2;
  options.seed = seed;
  options.rounds = 250;
  return options;
}

TEST(NemesisTest, CrashDuringWrite) {
  // A tablet server dies in the middle of the write window and comes back;
  // acked writes must survive the crash + adoption + restart churn.
  FaultPlan plan;
  plan.Crash(60 * 1000, 2)
      .Restart(200 * 1000, 2)
      .Crash(350 * 1000, 1)
      .Restart(500 * 1000, 1);
  RunTwiceAndCheck(BaseOptions(101), plan);
}

TEST(NemesisTest, KillDuringCheckpoint) {
  // A whole machine (server + data node) dies permanently while writes are
  // flowing; its tablets are adopted and its blocks re-replicated.
  FaultPlan plan;
  plan.DiskStall(50 * 1000, 3, 3000)  // slow its disk first: mid-I/O death
      .Kill(120 * 1000, 3)
      .Crash(300 * 1000, 1)
      .Restart(420 * 1000, 1);
  RunTwiceAndCheck(BaseOptions(202), plan);
}

TEST(NemesisTest, PartitionDuringCommit) {
  // The client's home node loses links to two servers across the commit
  // window; retries must ride it out and no acked commit may be lost.
  FaultPlan plan;
  plan.PartitionNodes(80 * 1000, 1, 2)
      .PartitionNodes(90 * 1000, 1, 3)
      .RpcDelay(100 * 1000, 500)
      .Heal(300 * 1000)
      .ClearRpcFaults(310 * 1000)
      .PartitionRacks(400 * 1000, 0, 1)
      .Heal(520 * 1000);
  RunTwiceAndCheck(BaseOptions(303), plan);
}

TEST(NemesisTest, DiskStallDuringCompaction) {
  // Disks stall and spit IOErrors under load; the write pipeline and the
  // retry layer must mask them without losing acked data.
  FaultPlan plan;
  plan.DiskStall(70 * 1000, 0, 8000)
      .DiskErrors(100 * 1000, 2, 3)
      .MetaErrors(150 * 1000, 2)
      .DiskClear(260 * 1000, 0)
      .DiskStall(350 * 1000, 4, 5000)
      .DiskClear(480 * 1000, 4);
  RunTwiceAndCheck(BaseOptions(404), plan);
}

TEST(NemesisTest, MasterKillDuringDdl) {
  // The active master dies while DDL and assignment churn are in flight;
  // the standby must win the election, recover persisted metadata, and the
  // cluster must end with exactly one active master.
  NemesisOptions options = BaseOptions(505);
  options.ddl_every = 40;  // more DDL pressure than the default
  FaultPlan plan;
  plan.CrashMaster(110 * 1000, 0)
      .Crash(200 * 1000, 2)
      .Restart(330 * 1000, 2)
      .RestartMaster(450 * 1000, 0);
  RunTwiceAndCheck(options, plan);
}

TEST(NemesisTest, BalancerRacesFaultsDeterministically) {
  // The elastic balancer migrates and splits tablets while servers and the
  // active master crash around it. I5 (ownership integrity) must hold after
  // heal — every assigned tablet exactly one live unsealed owner, no
  // orphans — and the whole run, balancer decisions included, must replay
  // bit-identically for the same (plan, seed).
  NemesisOptions options = BaseOptions(707);
  options.enable_balancer = true;
  options.balance_every = 15;
  FaultPlan plan;
  plan.Crash(90 * 1000, 2)
      .CrashMaster(180 * 1000, 0)
      .Restart(260 * 1000, 2)
      .Crash(400 * 1000, 3)
      .RestartMaster(480 * 1000, 0)
      .Restart(560 * 1000, 3);

  auto first = RunNemesis(options, plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->violations.empty()) << first->ToString();
  EXPECT_GT(first->faults_fired, 0);
  EXPECT_GT(first->ops_acked, 0);
  // The balancer must have actually acted for this to test anything.
  EXPECT_GT(first->balancer_migrations + first->balancer_splits, 0);

  auto second = RunNemesis(options, plan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->violations.empty()) << second->ToString();
  EXPECT_EQ(first->schedule, second->schedule);
  EXPECT_EQ(first->table_digest, second->table_digest) << first->ToString();
  EXPECT_EQ(first->ops_acked, second->ops_acked);
  EXPECT_EQ(first->balancer_migrations, second->balancer_migrations);
  EXPECT_EQ(first->balancer_splits, second->balancer_splits);
}

TEST(NemesisTest, StragglerReplicaDuringGroupCommit) {
  // A log replica's disk stalls mid-group-commit (quorum acks keep commits
  // flowing past the straggler), then the same machine crashes outright —
  // the log tail is quorum-durable but missing on one replica. After
  // restart the heal sweep must catch the stale copy up; no acked write
  // may be lost (I1) and the whole run must replay bit-identically.
  FaultPlan plan;
  plan.DiskStall(60 * 1000, 4, 20000)
      .Crash(150 * 1000, 4)
      .Restart(320 * 1000, 4)
      .DiskClear(330 * 1000, 4);
  RunTwiceAndCheck(BaseOptions(808), plan);
}

TEST(NemesisTest, SeededRandomPlanHoldsInvariants) {
  // A generated schedule (the fuzz entry point for future chaos tests).
  FaultPlan::RandomOptions ropts;
  ropts.num_nodes = 5;
  ropts.horizon_us = 550 * 1000;
  ropts.num_faults = 5;
  FaultPlan plan = FaultPlan::Random(0xC4405, ropts);
  RunTwiceAndCheck(BaseOptions(606), plan);
}

}  // namespace
}  // namespace logbase

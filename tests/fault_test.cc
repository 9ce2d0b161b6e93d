// Unit tests for the fault subsystem: plan determinism, the retry/backoff
// policy, and the injector's delivery/bookkeeping semantics.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/mini_cluster.h"
#include "src/fault/fault_injector.h"
#include "src/fault/retry_policy.h"
#include "src/sim/sim_context.h"

namespace logbase {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultTargets;
using fault::RetryOptions;
using fault::RetryPolicy;

// -- FaultPlan ------------------------------------------------------------

TEST(FaultPlanTest, SortedIsStableByTime) {
  FaultPlan plan;
  plan.Crash(500, 1).Heal(100).PartitionNodes(100, 0, 2).Restart(500, 1);
  auto sorted = plan.Sorted();
  ASSERT_EQ(sorted.size(), 4u);
  // Time order, ties keep insertion order.
  EXPECT_EQ(sorted[0].kind, FaultKind::kHealPartition);
  EXPECT_EQ(sorted[1].kind, FaultKind::kPartitionNodes);
  EXPECT_EQ(sorted[2].kind, FaultKind::kCrashServer);
  EXPECT_EQ(sorted[3].kind, FaultKind::kRestartServer);
}

TEST(FaultPlanTest, RandomPlanIsSeedDeterministic) {
  FaultPlan::RandomOptions opts;
  opts.num_nodes = 6;
  opts.num_faults = 12;
  opts.allow_kill = true;
  EXPECT_EQ(FaultPlan::Random(42, opts).ToString(),
            FaultPlan::Random(42, opts).ToString());
  EXPECT_NE(FaultPlan::Random(42, opts).ToString(),
            FaultPlan::Random(43, opts).ToString());
  EXPECT_FALSE(FaultPlan::Random(42, opts).empty());
}

// -- RetryPolicy ----------------------------------------------------------

TEST(RetryPolicyTest, SucceedsWithoutRetryOnOk) {
  RetryPolicy policy{RetryOptions{}};
  int calls = 0;
  Status s = policy.Run("op", [&]() {
    calls++;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, RetriesUntilSuccess) {
  RetryPolicy policy{RetryOptions{}};
  int calls = 0;
  Status s = policy.Run("op", [&]() {
    calls++;
    return calls < 3 ? Status::Unavailable("not yet") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, NonRetryableReturnsImmediately) {
  RetryPolicy policy{RetryOptions{}};
  int calls = 0;
  Status s = policy.Run("op", [&]() {
    calls++;
    return Status::InvalidArgument("bad");
  });
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, ExhaustionReportsAttemptCount) {
  RetryOptions opts;
  opts.max_attempts = 4;
  RetryPolicy policy{opts};
  int calls = 0;
  Status s = policy.Run("flaky_op", [&]() {
    calls++;
    return Status::Unavailable("down");
  });
  EXPECT_EQ(calls, 4);
  EXPECT_TRUE(s.IsUnavailable());
  // The satellite contract: the error names the op and the attempt count.
  EXPECT_NE(s.ToString().find("flaky_op"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("4 attempts"), std::string::npos)
      << s.ToString();
}

TEST(RetryPolicyTest, BackoffGrowsAndIsSeedDeterministic) {
  RetryOptions opts;
  opts.seed = 7;
  RetryPolicy a{opts};
  RetryPolicy b{opts};
  sim::VirtualTime prev = 0;
  for (int attempt = 1; attempt <= 5; attempt++) {
    sim::VirtualTime ba = a.BackoffUs("op", attempt);
    EXPECT_EQ(ba, b.BackoffUs("op", attempt));
    EXPECT_GT(ba, 0);
    if (attempt > 1) EXPECT_GT(ba, prev);
    prev = ba;
  }
  // Different ops jitter differently under the same seed.
  EXPECT_NE(a.BackoffUs("op", 3), a.BackoffUs("other_op", 3));
  // Backoff is capped.
  EXPECT_LE(a.BackoffUs("op", 40),
            static_cast<sim::VirtualTime>(
                fault::kMaxBackoffUs * (1.0 + opts.jitter)) +
                1);
}

TEST(RetryPolicyTest, BackoffAdvancesVirtualTime) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  RetryPolicy policy{RetryOptions{}};
  int calls = 0;
  (void)policy.Run("op", [&]() {
    calls++;
    return Status::Unavailable("down");
  });
  EXPECT_EQ(calls, RetryOptions{}.max_attempts);
  EXPECT_GT(ctx.now(), 0);  // the backoffs were charged to the clock
}

TEST(RetryPolicyTest, DeadlineBoundsAttempts) {
  RetryOptions opts;
  opts.max_attempts = 100;
  opts.initial_backoff_us = 1000;
  opts.deadline_us = 2500;  // room for only the first couple of backoffs
  RetryPolicy policy{opts};
  int calls = 0;
  Status s = policy.Run("op", [&]() {
    calls++;
    return Status::Unavailable("down");
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_LT(calls, 10);
}

TEST(RetryPolicyTest, ZeroBudgetDeadlineStillRunsFirstAttempt) {
  // The deadline bounds *backoff*, not the first try: even a budget smaller
  // than any possible backoff gets exactly one attempt, and no virtual time
  // is charged (the check runs before sleeping).
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  RetryOptions opts;
  opts.max_attempts = 100;
  opts.initial_backoff_us = 1000;
  opts.jitter = 0.2;  // min possible first backoff: 800us
  opts.deadline_us = 1;
  RetryPolicy policy{opts};
  int calls = 0;
  Status s = policy.Run("op", [&]() {
    calls++;
    return Status::Unavailable("down");
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ctx.now(), 0);
}

TEST(RetryPolicyTest, DeadlineExpiringMidBackoffStopsBeforeSleeping) {
  // jitter 0 makes the schedule exact: backoffs are 1000, 2000, 4000...
  // A 2500us deadline admits the first retry (cumulative 1000) but not the
  // second (cumulative 3000) — and the rejected retry charges nothing, so
  // the clock stops at exactly the backoff actually slept.
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  RetryOptions opts;
  opts.max_attempts = 100;
  opts.initial_backoff_us = 1000;
  opts.jitter = 0.0;
  opts.deadline_us = 2500;
  RetryPolicy policy{opts};
  int calls = 0;
  Status s = policy.Run("op", [&]() {
    calls++;
    return Status::Unavailable("down");
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(ctx.now(), 1000);

  // Boundary: cumulative backoff exactly equal to the deadline is within
  // budget (the check is strictly "would cross").
  opts.deadline_us = 1000;
  RetryPolicy exact{opts};
  calls = 0;
  (void)exact.Run("op", [&]() {
    calls++;
    return Status::Unavailable("down");
  });
  EXPECT_EQ(calls, 2);
}

TEST(RetryPolicyTest, DeadlineIsIndependentOfRetryAfterHints) {
  // A QoS retry-after hint shortens the *sleep*, but the deadline budget
  // stays on the nominal backoff schedule — so whether a run exhausts its
  // deadline cannot depend on which attempts happened to carry hints.
  RetryOptions opts;
  opts.max_attempts = 100;
  opts.initial_backoff_us = 1000;
  opts.jitter = 0.0;
  opts.deadline_us = 2500;
  RetryPolicy policy{opts};

  auto run = [&policy](bool hinted, sim::VirtualTime* elapsed) {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    int calls = 0;
    (void)policy.Run("op", [&]() {
      calls++;
      return hinted ? Status::UnavailableWithRetryAfter("shed", 1)
                    : Status::Unavailable("down");
    });
    *elapsed = ctx.now();
    return calls;
  };

  sim::VirtualTime plain_elapsed = 0, hinted_elapsed = 0;
  int plain_calls = run(false, &plain_elapsed);
  int hinted_calls = run(true, &hinted_elapsed);
  EXPECT_EQ(plain_calls, hinted_calls);  // same attempt budget
  EXPECT_EQ(plain_elapsed, 1000);        // slept the nominal backoff
  EXPECT_EQ(hinted_elapsed, 1);          // slept only to the hint
}

TEST(RetryPolicyTest, ResultOverloadPassesThroughValue) {
  RetryPolicy policy{RetryOptions{}};
  int calls = 0;
  Result<int> r = policy.Run<int>("op", [&]() -> Result<int> {
    calls++;
    if (calls < 2) return Status::Unavailable("not yet");
    return 41 + 1;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 2);
}

// -- FaultInjector against a synthetic target set -------------------------

struct FakeCluster {
  std::vector<int> crashes;
  std::vector<int> restarts;
  std::vector<int> kills;
  sim::DiskModel disk{"fake.disk"};

  FaultTargets Targets() {
    FaultTargets t;
    t.num_nodes = 4;
    t.crash_server = [this](int n) { crashes.push_back(n); };
    t.restart_server = [this](int n) {
      restarts.push_back(n);
      return Status::OK();
    };
    t.kill_node = [this](int n) {
      kills.push_back(n);
      return Status::OK();
    };
    t.disk = [this](int) { return &disk; };
    t.rack_of = [](int n) { return n / 2; };
    return t;
  }
};

TEST(FaultInjectorTest, FiresEventsInTimeOrder) {
  FakeCluster fake;
  FaultPlan plan;
  plan.Crash(100, 1).Restart(300, 1).Crash(200, 2);
  FaultInjector injector(fake.Targets(), plan);

  auto fired = injector.AdvanceTo(50);
  ASSERT_TRUE(fired.ok());
  EXPECT_EQ(*fired, 0);
  EXPECT_EQ(injector.pending(), 3u);

  fired = injector.AdvanceTo(250);
  ASSERT_TRUE(fired.ok());
  EXPECT_EQ(*fired, 2);
  EXPECT_EQ(fake.crashes, (std::vector<int>{1, 2}));
  EXPECT_EQ(injector.CrashedServers(), (std::vector<int>{1, 2}));

  fired = injector.FireAll();
  ASSERT_TRUE(fired.ok());
  EXPECT_EQ(*fired, 1);
  EXPECT_EQ(fake.restarts, (std::vector<int>{1}));
  EXPECT_EQ(injector.CrashedServers(), (std::vector<int>{2}));
  EXPECT_EQ(injector.pending(), 0u);
}

TEST(FaultInjectorTest, UnwiredTargetIsAnError) {
  FaultTargets t;  // nothing wired
  t.num_nodes = 2;
  FaultPlan plan;
  plan.Crash(10, 0);
  FaultInjector injector(t, plan);
  auto fired = injector.FireAll();
  EXPECT_FALSE(fired.ok());
}

TEST(FaultInjectorTest, PartitionBlocksPairSymmetrically) {
  FakeCluster fake;
  FaultPlan plan;
  plan.PartitionNodes(10, 0, 2);
  FaultInjector injector(fake.Targets(), plan);
  ASSERT_TRUE(injector.FireAll().ok());
  EXPECT_FALSE(injector.Reachable(0, 2));
  EXPECT_FALSE(injector.Reachable(2, 0));
  EXPECT_TRUE(injector.Reachable(0, 1));
  EXPECT_TRUE(injector.Reachable(0, 0));
  injector.HealNetwork();
  EXPECT_TRUE(injector.Reachable(0, 2));
}

TEST(FaultInjectorTest, RackPartitionCutsAllCrossRackLinks) {
  FakeCluster fake;  // racks {0,1} and {2,3}
  FaultPlan plan;
  plan.PartitionRacks(10, 0, 1);
  FaultInjector injector(fake.Targets(), plan);
  ASSERT_TRUE(injector.FireAll().ok());
  EXPECT_FALSE(injector.Reachable(0, 2));
  EXPECT_FALSE(injector.Reachable(1, 3));
  EXPECT_FALSE(injector.Reachable(3, 0));
  EXPECT_TRUE(injector.Reachable(0, 1));  // same rack
  EXPECT_TRUE(injector.Reachable(2, 3));
}

TEST(FaultInjectorTest, DiskStallAppliesAndClears) {
  FakeCluster fake;
  FaultPlan plan;
  plan.DiskStall(10, 0, 5000).DiskClear(20, 0);
  FaultInjector injector(fake.Targets(), plan);
  ASSERT_TRUE(injector.AdvanceTo(10).ok());
  EXPECT_EQ(fake.disk.stall_us(), 5000);
  ASSERT_TRUE(injector.AdvanceTo(20).ok());
  EXPECT_EQ(fake.disk.stall_us(), 0);
}

TEST(FaultInjectorTest, RpcDropIsDeterministicPerSeed) {
  FakeCluster fake;
  FaultPlan plan;
  plan.RpcDrop(0, 500000);  // 50%
  FaultInjector a(fake.Targets(), plan, /*seed=*/9);
  ASSERT_TRUE(a.FireAll().ok());
  std::vector<bool> first;
  for (int i = 0; i < 64; i++) first.push_back(a.Reachable(0, 1));
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);

  FakeCluster fake2;
  FaultPlan plan2;
  plan2.RpcDrop(0, 500000);
  FaultInjector b(fake2.Targets(), plan2, /*seed=*/9);
  ASSERT_TRUE(b.FireAll().ok());
  for (int i = 0; i < 64; i++) EXPECT_EQ(b.Reachable(0, 1), first[i]);
}

TEST(FaultInjectorTest, KillIsTrackedAsPermanent) {
  FakeCluster fake;
  FaultPlan plan;
  plan.Crash(5, 1).Kill(10, 3);
  FaultInjector injector(fake.Targets(), plan);
  ASSERT_TRUE(injector.FireAll().ok());
  EXPECT_TRUE(injector.IsNodeDead(3));
  EXPECT_FALSE(injector.IsNodeDead(1));
  EXPECT_EQ(injector.DeadNodes(), (std::vector<int>{3}));
  EXPECT_EQ(injector.CrashedServers(), (std::vector<int>{1}));
}

// The injector's fault-policy methods are read on every simulated transfer,
// possibly from many workload threads, while another thread advances the
// schedule. This is the chaos-label TSan scenario.
TEST(FaultInjectorTest, ConcurrentReachabilityQueriesAreSafe) {
  FakeCluster fake;
  FaultPlan plan;
  for (int i = 0; i < 50; i++) {
    plan.PartitionNodes(i * 10, i % 4, (i + 1) % 4);
    plan.Heal(i * 10 + 5);
    plan.RpcDelay(i * 10 + 7, 100);
  }
  FaultInjector injector(fake.Targets(), plan);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&injector, &stop]() {
      while (!stop.load()) {
        for (int s = 0; s < 4; s++) {
          for (int d = 0; d < 4; d++) {
            (void)injector.Reachable(s, d);
            (void)injector.ExtraDelayUs(s, d);
          }
        }
      }
    });
  }
  for (sim::VirtualTime t = 0; t <= 500; t += 5) {
    ASSERT_TRUE(injector.AdvanceTo(t).ok());
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(injector.pending(), 0u);
}

// -- Seed replay against a real cluster (the determinism satellite) -------

struct ReplayResult {
  std::vector<std::string> delivered;
  std::string final_value;
  uint64_t metrics_events = 0;
};

ReplayResult RunSeededCrashReplay(uint64_t seed) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  cluster::MiniClusterOptions opts;
  opts.num_nodes = 3;
  cluster::MiniCluster cluster(opts);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(cluster.master()
                  ->CreateTable("t", {"v"}, {{"v"}}, {})
                  .ok());

  FaultPlan plan;
  plan.Crash(2000, 1).DiskStall(3000, 2, 4000).Restart(9000, 1)
      .DiskClear(9500, 2);
  fault::FaultInjector injector(fault::ClusterTargets(&cluster), plan, seed);

  auto client = cluster.NewClient(0);
  ReplayResult result;
  for (int i = 0; i < 40; i++) {
    ctx.Advance(300);
    EXPECT_TRUE(injector.AdvanceTo(ctx.now()).ok());
    (void)cluster.master()->DetectAndHandleFailures();
    (void)client->Put("t", 0, "k", "v" + std::to_string(i), {});
  }
  EXPECT_TRUE(injector.FireAll().ok());
  (void)cluster.master()->DetectAndHandleFailures();
  auto r = client->Get("t", 0, "k", client::ReadOptions{});
  if (r.ok() && r->found()) result.final_value = r->value();
  result.delivered = injector.DeliveredLog();
  return result;
}

TEST(FaultReplayTest, SameSeedSameScheduleAndState) {
  ReplayResult a = RunSeededCrashReplay(1234);
  ReplayResult b = RunSeededCrashReplay(1234);
  ASSERT_FALSE(a.delivered.empty());
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.final_value, b.final_value);
  EXPECT_FALSE(a.final_value.empty());
}

}  // namespace
}  // namespace logbase

// Multi-tenant QoS (src/qos/): token-bucket math on the virtual clock,
// quota spec codec + distribution through the master's /meta/quota znodes,
// admission control (admit/queue/shed, priorities, retry-after hints),
// Status wire round-trips, RetryPolicy hint capping, end-to-end throttling
// through the client and at the replica front door, and the I7 nemesis
// invariant (quota enforcement deterministic under faults; shed ops never
// apply).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/client/client.h"
#include "src/cluster/mini_cluster.h"
#include "src/fault/nemesis.h"
#include "src/fault/retry_policy.h"
#include "src/qos/admission.h"
#include "src/qos/tenant.h"
#include "src/qos/token_bucket.h"
#include "src/sim/sim_context.h"
#include "src/util/status.h"

namespace logbase {
namespace {

using qos::AdmissionController;
using qos::AdmissionOptions;
using qos::QuotaSpec;
using qos::TokenBucket;

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, BurstThenRefill) {
  TokenBucket bucket(/*ops_per_sec=*/1000, /*ops_burst=*/10);

  // The full burst fits immediately; probing never consumes.
  EXPECT_EQ(bucket.WaitFor(10, 0), 0);
  EXPECT_EQ(bucket.WaitFor(10, 0), 0);
  bucket.Consume(10, 0);
  EXPECT_DOUBLE_EQ(bucket.OpsAvailable(0), 0.0);

  // One token refills in 1ms at 1000 ops/s; the wait rounds up.
  int64_t wait = bucket.WaitFor(1, 0);
  EXPECT_GT(wait, 0);
  EXPECT_LE(wait, 1001);
  EXPECT_EQ(bucket.WaitFor(1, wait), 0);

  // Refill caps at the burst, not beyond.
  EXPECT_EQ(bucket.WaitFor(10, 1'000'000), 0);
  EXPECT_GT(bucket.WaitFor(11, 1'000'000), 0);
}

TEST(TokenBucketTest, ConsumeAtReleaseCreatesDebt) {
  TokenBucket bucket(/*ops_per_sec=*/100, /*ops_burst=*/1);

  // A queued op consumes at its future release time: a probe at that same
  // time sees the debt and must wait a full token's refill again.
  bucket.Consume(1, 0);
  int64_t wait = bucket.WaitFor(1, 0);  // ~10ms
  bucket.Consume(1, wait);
  int64_t wait2 = bucket.WaitFor(1, wait);
  EXPECT_GT(wait2, 9'000);
}

TEST(TokenBucketTest, Deterministic) {
  TokenBucket a(333, 7), b(333, 7);
  sim::VirtualTime t = 0;
  for (int i = 0; i < 200; i++) {
    t += 1000 + 37 * (i % 11);
    ASSERT_EQ(a.WaitFor(2, t), b.WaitFor(2, t)) << i;
    if (a.WaitFor(2, t) == 0) {
      a.Consume(2, t);
      b.Consume(2, t);
    }
    ASSERT_DOUBLE_EQ(a.OpsAvailable(t), b.OpsAvailable(t)) << i;
  }
}

// ---------------------------------------------------------------------------
// QuotaSpec codec
// ---------------------------------------------------------------------------

TEST(QuotaCodecTest, RoundTrip) {
  QuotaSpec spec;
  spec.tenant = "tenant-a";
  spec.ops_per_sec = 123.456;
  spec.ops_burst = 0.25;
  std::string wire = qos::EncodeQuotaSpec(spec);

  QuotaSpec out;
  ASSERT_TRUE(qos::DecodeQuotaSpec(Slice(wire), &out));
  EXPECT_EQ(out, spec);

  // Truncated and over-long inputs are rejected.
  QuotaSpec scratch;
  EXPECT_FALSE(qos::DecodeQuotaSpec(Slice(wire.data(), wire.size() - 1),
                                    &scratch));
  std::string extra = wire + "x";
  EXPECT_FALSE(qos::DecodeQuotaSpec(Slice(extra), &scratch));
}

// ---------------------------------------------------------------------------
// Master SetQuota -> /meta/quota znodes -> every server's admission gate
// ---------------------------------------------------------------------------

/// Under `tenant` (kLow: a 5ms queue cap), `admission` admits exactly
/// `burst` ops at once and sheds the next one with a retry-after hint.
void ExpectBurstThenShed(AdmissionController* admission,
                         const std::string& tenant, uint64_t burst) {
  qos::TenantIdentity who{tenant, qos::Priority::kLow};
  qos::TenantScope scope(&who);
  EXPECT_TRUE(admission->Admit(burst).ok());
  Status shed = admission->Admit(1);
  EXPECT_TRUE(shed.IsUnavailable()) << shed.ToString();
  EXPECT_GT(shed.retry_after_us(), 0);
}

TEST(MasterQuotaTest, SetQuotaDistributesAndSurvivesFailover) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);

  cluster::MiniClusterOptions options;
  options.num_nodes = 3;
  options.num_masters = 2;
  options.server_template.admission.enabled = true;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* active = cluster.active_master();
  ASSERT_NE(active, nullptr);

  QuotaSpec quota;
  quota.tenant = "hostile";
  quota.ops_per_sec = 10;
  quota.ops_burst = 2;
  ASSERT_TRUE(active->SetQuota(quota).ok());

  // Empty tenant and standby masters are rejected.
  EXPECT_TRUE(active->SetQuota(QuotaSpec{}).IsInvalidArgument());
  for (int i = 0; i < cluster.num_masters(); i++) {
    if (cluster.masters(i) == active) continue;
    EXPECT_TRUE(cluster.masters(i)->SetQuota(quota).IsUnavailable());
  }

  // Every tablet server enforces the quota once its cached view expires.
  ctx.Advance(20'000);
  for (int node = 0; node < options.num_nodes; node++) {
    SCOPED_TRACE("node " + std::to_string(node));
    ExpectBurstThenShed(cluster.server(node)->admission(), "hostile", 2);
  }

  // Failover: the quota lives in its znode, so it survives the master that
  // wrote it, and the standby that takes over can replace it.
  int active_idx = -1;
  for (int i = 0; i < cluster.num_masters(); i++) {
    if (cluster.masters(i) == active) active_idx = i;
  }
  ASSERT_GE(active_idx, 0);
  cluster.CrashMaster(active_idx);
  master::Master* next = cluster.active_master();
  ASSERT_NE(next, nullptr);
  ASSERT_NE(next, active);
  auto persisted = cluster.coord()->znodes()->Get(qos::QuotaPath("hostile"));
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  QuotaSpec recovered;
  ASSERT_TRUE(qos::DecodeQuotaSpec(Slice(*persisted), &recovered));
  EXPECT_EQ(recovered, quota);

  quota.ops_burst = 5;
  ASSERT_TRUE(next->SetQuota(quota).ok());
  ctx.Advance(20'000);
  for (int node = 0; node < options.num_nodes; node++) {
    SCOPED_TRACE("node " + std::to_string(node));
    ExpectBurstThenShed(cluster.server(node)->admission(), "hostile", 5);
  }
}

// ---------------------------------------------------------------------------
// AdmissionController: admit / queue / shed
// ---------------------------------------------------------------------------

/// A locally installed quota for the default tenant (the identity every
/// un-scoped caller runs as).
QuotaSpec DefaultQuota(double ops_per_sec, double ops_burst) {
  return QuotaSpec{qos::DefaultTenantName(), ops_per_sec, ops_burst};
}

TEST(AdmissionTest, DisabledIsFreePass) {
  AdmissionOptions options;  // enabled = false
  AdmissionController admission(options, nullptr, 0);
  admission.SetLocal(DefaultQuota(1, 1));
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(admission.Admit(1).ok());
  }
}

TEST(AdmissionTest, QueueAdvancesClockThenSheds) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);

  AdmissionController admission({.enabled = true}, nullptr, 0);
  admission.SetLocal(DefaultQuota(1000, 4));

  // Burst admits instantly.
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(admission.Admit(1).ok()) << i;
  }
  EXPECT_EQ(ctx.now(), 0);

  // The 5th op waits ~1ms for a token: under the kNormal 10ms cap, so it
  // queues — the ambient clock advances by the wait and the op is admitted.
  ASSERT_TRUE(admission.Admit(1).ok());
  EXPECT_GT(ctx.now(), 900);
  EXPECT_LE(ctx.now(), 1100);

  // A burst-sized op now needs ~4ms+: still queueable; a 15-token op needs
  // ~15ms: over the cap, shed with the honest wait as the hint.
  Status shed = admission.Admit(15);
  EXPECT_TRUE(shed.IsUnavailable());
  EXPECT_GT(shed.retry_after_us(), 10'000);
  EXPECT_NE(shed.message().find("over tenant quota: default"),
            std::string::npos);
}

TEST(AdmissionTest, PriorityLaddersShedLowFirst) {
  // A 7-token op waits ~6ms: the kLow cap (5ms) sheds it, the kNormal cap
  // (10ms) queues it. Run each case on a fresh controller + clock.
  qos::TenantIdentity low{qos::DefaultTenantName(), qos::Priority::kLow};
  {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    AdmissionController admission({.enabled = true}, nullptr, 0);
    admission.SetLocal(DefaultQuota(1000, 1));
    ASSERT_TRUE(admission.Admit(1).ok());
    qos::TenantScope tenant(&low);
    EXPECT_TRUE(admission.Admit(6).IsUnavailable());
  }
  {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    AdmissionController admission({.enabled = true}, nullptr, 0);
    admission.SetLocal(DefaultQuota(1000, 1));
    ASSERT_TRUE(admission.Admit(1).ok());
    EXPECT_TRUE(admission.Admit(6).ok());  // kNormal default
    EXPECT_GT(ctx.now(), 5'000);
  }
}

TEST(AdmissionTest, QueueDepthBoundsAcrossClients) {
  // 100 ops/ms: each queued op below adds ~0.1ms of debt, so 32 of them
  // stay far under the kNormal 10ms wait cap and only the queue's depth
  // (32 for kNormal) can shed.
  AdmissionController admission({.enabled = true}, nullptr, 0);
  admission.SetLocal(DefaultQuota(100'000, 1));
  {
    sim::SimContext client;
    sim::SimContext::Scope scope(&client);
    ASSERT_TRUE(admission.Admit(1).ok());  // burst
    EXPECT_EQ(client.now(), 0);
  }

  // A queued request advances its *own* client's clock to the release time,
  // so from that client's view the entry is already drained. Clients still
  // at an earlier virtual time see it pending — and once the kNormal queue
  // is full, a queueable-wait request is shed by depth, not by the wait cap.
  constexpr int kDepth = 32;
  for (int i = 0; i < kDepth; i++) {
    sim::SimContext client;  // at t=0
    sim::SimContext::Scope scope(&client);
    ASSERT_TRUE(admission.Admit(1).ok()) << i;  // queued
    EXPECT_GT(client.now(), 0) << i;
    EXPECT_LT(client.now(), 10'000) << i;
    // Released last so far: nothing is pending from this client's view.
    EXPECT_EQ(admission.QueueDepth(), 0u) << i;
  }
  sim::SimContext late;  // still at t=0
  {
    sim::SimContext::Scope scope(&late);
    EXPECT_EQ(admission.QueueDepth(), static_cast<size_t>(kDepth));
    Status s = admission.Admit(1);
    ASSERT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_GT(s.retry_after_us(), 0);
    EXPECT_LT(s.retry_after_us(), 10'000);  // shed by depth, not wait
    EXPECT_EQ(late.now(), 0);  // shed without blocking
  }
}

TEST(AdmissionTest, TenantQuotaShedsWithHonestHint) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);

  AdmissionController admission({.enabled = true}, nullptr, 0);
  admission.SetLocal(QuotaSpec{"hostile", 100, 1});

  qos::TenantIdentity hostile{"hostile", qos::Priority::kLow};
  qos::TenantScope tenant(&hostile);

  ASSERT_TRUE(admission.Admit(1).ok());
  // Next op needs a 10ms refill: over the kLow 5ms cap -> shed, and the
  // message names the throttled tenant.
  Status s = admission.Admit(1);
  ASSERT_TRUE(s.IsUnavailable());
  EXPECT_GT(s.retry_after_us(), 9'000);
  EXPECT_NE(s.message().find("over tenant quota: hostile"),
            std::string::npos);

  // The shed burned no tokens: sleeping out the hint admits cleanly.
  ctx.Advance(s.retry_after_us());
  EXPECT_TRUE(admission.Admit(1).ok());

  // Other tenants are untouched by the hostile tenant's quota.
  qos::TenantIdentity victim{"victim", qos::Priority::kNormal};
  qos::TenantScope inner(&victim);
  EXPECT_TRUE(admission.Admit(100).ok());
}

TEST(AdmissionTest, QuotaGovernsOnlyItsTenant) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  AdmissionController admission({.enabled = true}, nullptr, 0);
  admission.SetLocal(QuotaSpec{"a", 100, 1});

  // The tenant-wide quota gates every op of its tenant: 50 ops at once are
  // ~490ms out (shed, nothing consumed), one op fits.
  qos::TenantIdentity a{"a", qos::Priority::kNormal};
  {
    qos::TenantScope tenant(&a);
    EXPECT_TRUE(admission.Admit(50).IsUnavailable());
    EXPECT_TRUE(admission.Admit(1).ok());
  }

  // Tenants without a quota are unlimited.
  qos::TenantIdentity b{"b", qos::Priority::kNormal};
  qos::TenantScope tenant(&b);
  EXPECT_TRUE(admission.Admit(1'000'000).ok());
  EXPECT_EQ(ctx.now(), 0);
}

// ---------------------------------------------------------------------------
// RetryPolicy hint handling
// ---------------------------------------------------------------------------

TEST(RetryHintTest, HintCapsBackoffDeterministically) {
  fault::RetryOptions options;
  options.max_attempts = 2;
  options.initial_backoff_us = 50'000;
  options.jitter = 0.2;
  options.seed = 77;
  fault::RetryPolicy policy(options);

  // The server's 2ms hint caps the jittered ~50ms backoff exactly.
  auto run_once = [&policy]() {
    sim::SimContext ctx;
    sim::SimContext::Scope scope(&ctx);
    int calls = 0;
    Status s = policy.Run("qos.test", [&calls]() {
      calls++;
      return Status::UnavailableWithRetryAfter("shed", 2'000);
    });
    EXPECT_TRUE(s.IsUnavailable());
    EXPECT_EQ(calls, 2);
    return ctx.now();
  };
  sim::VirtualTime first = run_once();
  EXPECT_EQ(first, 2'000);
  EXPECT_EQ(run_once(), first);

  // A hint larger than the computed backoff changes nothing.
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  (void)policy.Run("qos.test2", []() {
    return Status::UnavailableWithRetryAfter("shed", 10'000'000);
  });
  EXPECT_EQ(ctx.now(), policy.BackoffUs("qos.test2", 1));
}

TEST(RetryHintTest, ExhaustedPreservesHint) {
  fault::RetryOptions options;
  options.max_attempts = 1;
  fault::RetryPolicy policy(options);
  Status s = policy.Run("qos.exhaust", []() {
    return Status::UnavailableWithRetryAfter("shed", 4'242);
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(s.retry_after_us(), 4'242);
}

// ---------------------------------------------------------------------------
// End to end: client tenant scopes, shedding at primary and replica doors
// ---------------------------------------------------------------------------

struct QosCluster {
  sim::SimContext ctx;
  std::unique_ptr<sim::SimContext::Scope> scope;
  std::unique_ptr<cluster::MiniCluster> cluster;

  QosCluster() {
    scope = std::make_unique<sim::SimContext::Scope>(&ctx);
    cluster::MiniClusterOptions options;
    options.num_nodes = 3;
    options.server_template.admission.enabled = true;
    cluster = std::make_unique<cluster::MiniCluster>(options);
    if (!cluster->Start().ok()) std::abort();
    auto schema = cluster->master()->CreateTable("t", {"v"}, {{"v"}},
                                                 {"key50"});
    if (!schema.ok()) std::abort();
  }
};

TEST(QosEndToEndTest, ShedWriteNeverApplies) {
  QosCluster fixture;
  cluster::MiniCluster& cluster = *fixture.cluster;

  QuotaSpec quota;
  quota.tenant = "hostile";
  // 1 op/s: the refill period (1 s) dwarfs any virtual latency the
  // intermediate operations below can accumulate, so the bucket stays
  // empty for the whole test after the first admitted write.
  quota.ops_per_sec = 1;
  quota.ops_burst = 1;
  ASSERT_TRUE(cluster.active_master()->SetQuota(quota).ok());
  fixture.ctx.Advance(20'000);

  auto client = cluster.NewClient(0);
  client->set_tenant({"hostile", qos::Priority::kLow});
  fault::RetryOptions retry;
  retry.max_attempts = 1;  // fail fast: a shed must surface, not retry away
  client->set_retry_options(retry);

  // First write rides the burst; the immediate second one is shed.
  ASSERT_TRUE(client->Put("t", 0, "key10", "v1", {}).ok());
  Status shed = client->Put("t", 0, "key10", "v2", {});
  ASSERT_TRUE(shed.IsUnavailable()) << shed.ToString();
  EXPECT_GT(shed.retry_after_us(), 0);

  // The shed write applied nothing: the admitted value is still served.
  auto read_client = cluster.NewClient(1);
  auto r = read_client->Get("t", 0, "key10", client::ReadOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->found());
  EXPECT_EQ(r->value(), "v1");

  // Reads are gated too.
  Status shed_read =
      client->Get("t", 0, "key10", client::ReadOptions{}).status();
  EXPECT_TRUE(shed_read.IsUnavailable());
}

TEST(QosEndToEndTest, RetryAfterHintPacesThrottledTenant) {
  QosCluster fixture;
  cluster::MiniCluster& cluster = *fixture.cluster;

  QuotaSpec quota;
  quota.tenant = "hostile";
  quota.ops_per_sec = 200;
  quota.ops_burst = 5;
  ASSERT_TRUE(cluster.active_master()->SetQuota(quota).ok());
  fixture.ctx.Advance(20'000);

  auto client = cluster.NewClient(0);
  client->set_tenant({"hostile", qos::Priority::kLow});
  fault::RetryOptions retry;
  retry.max_attempts = 10;  // enough backoff budget to ride out any shed
  retry.seed = 7;
  client->set_retry_options(retry);

  // 50 closed-loop writes at a 200 ops/s quota: every op eventually admits
  // (sheds sleep out their hint-capped backoff, short waits queue at the
  // front door), so the elapsed virtual time approaches 50 / 200 = 250ms
  // and the acked rate lands near the configured quota.
  sim::VirtualTime start = fixture.ctx.now();
  int acked = 0;
  for (int i = 0; i < 50; i++) {
    if (client->Put("t", 0, "key10", "v" + std::to_string(i), {}).ok()) {
      acked++;
    }
  }
  EXPECT_EQ(acked, 50);
  double seconds =
      static_cast<double>(fixture.ctx.now() - start) / 1e6;
  double rate = acked / seconds;
  EXPECT_GT(rate, 150) << "paced rate " << rate;
  EXPECT_LT(rate, 270) << "paced rate " << rate;
}

TEST(QosEndToEndTest, ReplicaShedsOverQuotaStaleReads) {
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  cluster::MiniClusterOptions options;
  options.num_nodes = 3;
  options.num_replicas = 1;
  options.server_template.admission.enabled = true;
  options.replica_template.admission.enabled = true;
  cluster::MiniCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  master::Master* m = cluster.active_master();
  ASSERT_TRUE(m->CreateTable("t", {"v"}, {{"v"}}, {}).ok());
  auto writer = cluster.NewClient(0);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        writer->Put("t", 0, "key" + std::to_string(i), "v", {}).ok());
  }
  std::vector<std::string> uids;
  for (const auto& [uid, location] : m->AssignmentsSnapshot()) {
    ASSERT_TRUE(m->AddReplica(uid).ok());
    uids.push_back(uid);
  }
  ASSERT_EQ(uids.size(), 1u);
  ASSERT_TRUE(cluster.TickReplicas().ok());
  replica::ReplicaServer* rep = cluster.replica(0);
  auto stale_read = [&](int i) {
    return rep
        ->Get(uids[0], Slice("key" + std::to_string(i)), index::kLatest,
              /*max_staleness_us=*/0)
        .status();
  };

  // The replica reads /meta/quota before any quota exists, then the quota
  // lands through the master and is in force one refresh interval later.
  ASSERT_TRUE(stale_read(0).ok());
  QuotaSpec quota;
  quota.tenant = "hostile";
  quota.ops_per_sec = 1;
  quota.ops_burst = 2;
  ASSERT_TRUE(m->SetQuota(quota).ok());
  ctx.Advance(20'000);

  {
    qos::TenantIdentity hostile{"hostile", qos::Priority::kLow};
    qos::TenantScope tenant(&hostile);
    ASSERT_TRUE(stale_read(0).ok());
    ASSERT_TRUE(stale_read(1).ok());
    Status shed = stale_read(2);
    ASSERT_TRUE(shed.IsUnavailable()) << shed.ToString();
    EXPECT_GT(shed.retry_after_us(), 0);
  }

  // Another tenant's reads on the same replica are still served.
  qos::TenantIdentity victim{"victim", qos::Priority::kNormal};
  qos::TenantScope tenant(&victim);
  for (int i = 0; i < 10; i++) {
    EXPECT_TRUE(stale_read(i).ok()) << i;
  }
}

// ---------------------------------------------------------------------------
// I7: quota enforcement under faults (nemesis)
// ---------------------------------------------------------------------------

TEST(QosNemesisTest, I7ShedNeverAppliesAndReplaysBitIdentically) {
  fault::NemesisOptions options;
  options.num_nodes = 5;
  options.num_masters = 2;
  options.seed = 7070;
  options.rounds = 200;
  // One hostile write fires per 2.5 ms round (= 400/s attempted). The quota
  // must sit low enough that the steady-state over-quota wait
  // ((1 - refill_per_round) / rate) exceeds kLow's 5 ms queue cap — above
  // ~133 ops/s every hostile write would be politely queued instead of
  // shed, and the test wants to see both outcomes.
  options.qos_hostile_ops_per_sec = 50;
  fault::FaultPlan plan;
  plan.Crash(60 * 1000, 2)
      .Restart(180 * 1000, 2)
      .PartitionNodes(250 * 1000, 1, 3)
      .Heal(350 * 1000);

  auto first = fault::RunNemesis(options, plan);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->violations.empty()) << first->ToString();
  EXPECT_GT(first->ops_hostile_attempted, 0);
  EXPECT_GT(first->ops_shed, 0) << first->ToString();
  EXPECT_LT(first->ops_shed, first->ops_hostile_attempted);

  auto second = fault::RunNemesis(options, plan);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->violations.empty()) << second->ToString();
  EXPECT_EQ(first->schedule, second->schedule);
  EXPECT_EQ(first->table_digest, second->table_digest);
  EXPECT_EQ(first->ops_shed, second->ops_shed);
  EXPECT_EQ(first->ops_hostile_attempted, second->ops_hostile_attempted);
  EXPECT_EQ(first->ops_acked, second->ops_acked);
}

}  // namespace
}  // namespace logbase

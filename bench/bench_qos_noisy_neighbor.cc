// Multi-tenant QoS — a hostile zipfian writer beside a well-behaved tenant
// on a shared 3-server cluster, before/after a token-bucket quota is
// installed for the hostile tenant. Unthrottled, the hostile tenant floods
// the shared FCFS disk/NIC queues and the victim's tail latency explodes;
// with the quota, admission control sheds the excess at the front door with
// a retry-after hint the client's backoff honors, pacing the hostile tenant
// to its configured rate while the victim's p99 recovers. Not a paper
// figure: LogBase targets multi-tenant cloud deployments (§1), this
// measures the isolation machinery (src/qos/).

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/qos/admission.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

constexpr const char* kTable = "mt";
constexpr int kNodes = 3;
constexpr double kHostileRate = 100.0;  // ops/sec quota for phase B
// Half a second of banked quota: enough to ride out the write path's own
// stalls (segment rolls, pipelined sync waits) without wasting paid-for
// tokens against the burst cap, small relative to the measured phase.
constexpr double kHostileBurst = 50.0;
// The hostile tenant is 8 concurrent connections, each an open-loop op
// source. One serial connection is bound by its own round-trip latency
// (~1/RTT ops/s) and can never saturate the shared disk; a real bulk
// loader floods with parallelism, and all its connections draw from the
// same tenant token bucket when the quota lands.
constexpr int kHostileStreams = 8;
constexpr int kHostileOpsPerRound = 16;  // total across streams, per round
static_assert(kHostileOpsPerRound % kHostileStreams == 0, "even split");
// Bulk writes: 32 KB values, so the unthrottled flood saturates the shared
// disk's bandwidth and group-commit pipeline, not just its op slots.
constexpr size_t kHostileValueBytes = 32 * 1024;
// Open-loop pacing: every round starts at a fixed virtual time on each
// tenant's clock, so the victim offers 1/period ops/s and the hostile
// tenant kHostileOpsPerRound/period — 16x the quota installed for phase B.
constexpr sim::VirtualTime kRoundPeriodUs = 10'000;

std::string KeyAt(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08llu",
                static_cast<unsigned long long>(index));
  return buf;
}

struct TenantPhase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0;
  double throughput = 0;  // acked ops per virtual second
  Histogram latency_us;
};

/// One concurrent hostile connection's state: at most one op in flight
/// (possibly mid-pacing after a shed, waiting out its retry-after hint).
struct HostileStream {
  uint64_t issued = 0;  // completed (acked, failed, or given-up) ops
  std::string key;      // the op in flight
  sim::VirtualTime start = 0;
  int attempts = 0;  // shed attempts of the op in flight so far
};

/// One open-loop pass from `t0`. Every op source — the victim, and each of
/// the hostile tenant's kHostileStreams connections — is a sim::Scheduler
/// actor with fixed grid start times offset by `t0` (the victim offers one
/// uniform update per kRoundPeriodUs, each hostile connection its share of
/// kHostileOpsPerRound zipfian updates per round). After each op an actor
/// moves its clock to its next grid time (if that is later), so the
/// scheduler always issues the single attempt whose scheduled start is
/// earliest: the discrete-event rule that keeps every server's arrival
/// order consistent with the streams' diverging clocks. The hostile client
/// is fail-fast (one attempt) and the DRIVER honors a shed's retry-after
/// hint — it advances only that stream's clock by the hint and re-attempts
/// the same op at its new slot, so ops scheduled during the pacing sleep
/// interleave in front of the retry exactly as concurrent clients would. A
/// stream that ran long misses grid points and degrades to closed-loop —
/// what the throttled hostile connections do in phase B — while the
/// victim's offered load stays constant across phases so its latency
/// numbers are comparable.
void RunPhase(client::LogBaseClient* victim, client::LogBaseClient* hostile,
              ZipfianGenerator* zipf, Random* victim_rnd, Random* hostile_rnd,
              uint64_t rounds, uint64_t records,
              const std::string& victim_value,
              const std::string& hostile_value, sim::VirtualTime t0,
              TenantPhase* victim_out, TenantPhase* hostile_out) {
  constexpr uint64_t kPerStreamPerRound = kHostileOpsPerRound / kHostileStreams;
  const uint64_t per_stream_ops = rounds * kPerStreamPerRound;
  // Paced re-attempts before giving up. Streams race for the same tenant
  // bucket, so one connection can lose many consecutive token grants to
  // its siblings before its turn comes around.
  constexpr int kMaxAttempts = 256;
  // Grid start of op `n` of a source offering `per_round` ops per round.
  auto grid = [t0](uint64_t n, uint64_t per_round) {
    return t0 + static_cast<sim::VirtualTime>(n / per_round) * kRoundPeriodUs;
  };
  sim::VirtualTime victim_end = t0;
  sim::VirtualTime hostile_end = t0;
  sim::Scheduler sched;
  sched.Add(t0, [&, issued = uint64_t{0}](sim::SimContext& ctx) mutable {
    std::string key = KeyAt(victim_rnd->Uniform(records));
    sim::VirtualTime start = ctx.now();
    Status s = victim->Put(kTable, 0, key, victim_value, {});
    victim_out->ops++;
    if (s.ok()) {
      victim_out->latency_us.Add(static_cast<double>(ctx.now() - start));
    } else {
      victim_out->failed++;
    }
    victim_end = ctx.now();
    ctx.AdvanceTo(grid(++issued, 1));
    return issued < rounds;
  });
  for (int i = 0; i < kHostileStreams; i++) {
    sched.Add(t0, [&, st = HostileStream{}](sim::SimContext& ctx) mutable {
      if (st.attempts == 0) {
        st.key = KeyAt(zipf->Next(hostile_rnd));
        st.start = ctx.now();
      }
      Status s = hostile->Put(kTable, 0, st.key, hostile_value, {});
      if (!s.ok() && s.retry_after_us() > 0 && ++st.attempts < kMaxAttempts) {
        ctx.Advance(s.retry_after_us());  // pace, re-attempt later
        return true;
      }
      hostile_out->ops++;
      if (s.ok()) {
        hostile_out->latency_us.Add(static_cast<double>(ctx.now() - st.start));
      } else {
        hostile_out->failed++;
      }
      hostile_end = std::max(hostile_end, ctx.now());
      st.attempts = 0;
      ctx.AdvanceTo(grid(++st.issued, kPerStreamPerRound));
      return st.issued < per_stream_ops;
    });
  }
  sched.Run();
  victim_out->seconds = static_cast<double>(victim_end - t0) / 1e6;
  hostile_out->seconds = static_cast<double>(hostile_end - t0) / 1e6;
  if (victim_out->seconds > 0) {
    victim_out->throughput =
        static_cast<double>(victim_out->ops - victim_out->failed) /
        victim_out->seconds;
  }
  if (hostile_out->seconds > 0) {
    hostile_out->throughput =
        static_cast<double>(hostile_out->ops - hostile_out->failed) /
        hostile_out->seconds;
  }
}

void PrintTenant(const char* label, const TenantPhase& t) {
  std::printf("%-28s %9.0f ops/s  p50=%8.0fus  p99=%8.0fus  acked=%llu/%llu\n",
              label, t.throughput, t.latency_us.Percentile(50),
              t.latency_us.Percentile(99),
              static_cast<unsigned long long>(t.ops - t.failed),
              static_cast<unsigned long long>(t.ops));
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("QoS", "Noisy neighbor, before/after a token-bucket quota "
                     "(3 servers, 2 tenants)");
  const uint64_t records = Scaled(10000);
  const uint64_t rounds = Scaled(4000);
  std::printf("records: %llu, rounds: %llu x %lldus (victim 1 update + "
              "hostile %d zipfian updates per round over %d connections), "
              "hostile quota %g ops/s burst %g\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(rounds),
              static_cast<long long>(kRoundPeriodUs), kHostileOpsPerRound,
              kHostileStreams, kHostileRate, kHostileBurst);

  cluster::MiniClusterOptions options;
  options.num_nodes = kNodes;
  options.server_template.admission.enabled = true;
  cluster::MiniCluster cluster(options);
  if (!cluster.Start().ok()) std::abort();
  // One tablet: both tenants share a single server front door, so the
  // installed quota binds exactly (per-server buckets would otherwise let
  // a spread-out tenant draw tokens from every server it touches).
  if (!cluster.master()->CreateTable(kTable, {"v"}, {{"v"}}, {}).ok()) {
    std::abort();
  }

  auto victim = cluster.NewClient(0);
  victim->set_tenant({"victim", qos::Priority::kNormal});
  auto hostile = cluster.NewClient(1);
  hostile->set_tenant({"hostile", qos::Priority::kLow});
  {
    // Fail fast: the bench driver itself paces shed ops by their
    // retry-after hints (see RunPhase), so other tenants' ops interleave
    // during the pacing sleeps the way concurrent clients would.
    fault::RetryOptions hostile_retry;
    hostile_retry.max_attempts = 1;
    hostile->set_retry_options(hostile_retry);
  }
  const std::string value(1024, 'v');
  const std::string hostile_value(kHostileValueBytes, 'h');

  // Load all records (uniform, as the victim tenant's setup job).
  {
    sim::ScopedClock load_clock(QuiesceTime(cluster.dfs(), cluster.network()));
    for (uint64_t i = 0; i < records; i++) {
      if (!victim->Put(kTable, 0, KeyAt(i), value, {}).ok()) std::abort();
    }
  }

  ZipfianGenerator zipf(records, 0.99);
  Random victim_rnd(0x51C7), hostile_rnd(0xB1A5);

  // -- Phase A: no quota — the hostile tenant floods the shared queues ----
  TenantPhase victim_before, hostile_before;
  RunPhase(victim.get(), hostile.get(), &zipf, &victim_rnd, &hostile_rnd,
           rounds, records, value, hostile_value,
           QuiesceTime(cluster.dfs(), cluster.network()), &victim_before,
           &hostile_before);

  // -- Install the quota through the master (persisted, resolved by every
  //    server's admission controller within one refresh interval) ------
  {
    qos::QuotaSpec quota;
    quota.tenant = "hostile";
    quota.ops_per_sec = kHostileRate;
    quota.ops_burst = kHostileBurst;
    if (cluster.active_master() == nullptr ||
        !cluster.active_master()->SetQuota(quota).ok()) {
      std::abort();
    }
  }

  // -- Phase B: same load, hostile tenant throttled to its quota ----------
  cluster.ResetMetrics();
  TenantPhase victim_after, hostile_after;
  RunPhase(victim.get(), hostile.get(), &zipf, &victim_rnd, &hostile_rnd,
           rounds, records, value, hostile_value,
           QuiesceTime(cluster.dfs(), cluster.network()), &victim_after,
           &hostile_after);

  PrintTenant("victim, no quota:", victim_before);
  PrintTenant("hostile, no quota:", hostile_before);
  PrintTenant("victim, quota on:", victim_after);
  PrintTenant("hostile, quota on:", hostile_after);

  const double p99_before = victim_before.latency_us.Percentile(99);
  const double p99_after = victim_after.latency_us.Percentile(99);
  const double p99_gain = p99_after > 0 ? p99_before / p99_after : 0;
  const double rate_error =
      (hostile_after.throughput - kHostileRate) / kHostileRate;
  std::printf("victim p99 %.0fus -> %.0fus (%.2fx better); hostile "
              "%.0f -> %.0f ops/s (target %g, error %+.1f%%)\n",
              p99_before, p99_after, p99_gain, hostile_before.throughput,
              hostile_after.throughput, kHostileRate, 100 * rate_error);
  const bool p99_ok = p99_gain >= 3.0;
  const bool rate_ok = std::abs(rate_error) <= 0.10;
  std::printf("check: victim p99 improvement >= 3x: %s\n",
              p99_ok ? "PASS" : "FAIL");
  std::printf("check: hostile rate within 10%% of quota: %s\n",
              rate_ok ? "PASS" : "FAIL");
  PrintComponentBreakdown(cluster.DumpMetrics(), "quota-on phase");

  BenchResult result("qos_noisy_neighbor");
  result.Set("records", static_cast<double>(records));
  result.Set("hostile_quota_ops", kHostileRate);
  auto add = [&result](const char* label, const TenantPhase& t) {
    result.AddRow("phases", label,
                  {{"throughput_ops", t.throughput},
                   {"p50_us", t.latency_us.Percentile(50)},
                   {"p99_us", t.latency_us.Percentile(99)},
                   {"failed", static_cast<double>(t.failed)}});
  };
  add("victim_before", victim_before);
  add("hostile_before", hostile_before);
  add("victim_after", victim_after);
  add("hostile_after", hostile_after);
  result.Set("victim_p99_gain", p99_gain);
  result.Set("hostile_rate_error", rate_error);
  result.WriteFile();
  PrintPaperClaim(
      "LogBase is built as shared cloud infrastructure (§1): per-tenant "
      "token-bucket quotas enforced at the tablet servers' front doors keep "
      "one tenant's burst from inflating every tenant's tail latency, while "
      "retry-after hints pace the throttled tenant to its configured rate "
      "instead of wasting its requests.");
  // Either check failing fails the run, so CI (ctest bench_qos_gate) sees it.
  return p99_ok && rate_ok ? 0 : 1;
}

// Elasticity — zipfian YCSB hot spot on a 5-server cluster, before/after the
// elastic balancer converges. The skewed key choice concentrates traffic on
// one server; its FCFS disk/NIC queues grow while the cluster idles. The
// balancer splits the dominant tablet and migrates load off the hot server
// (live, over the shared log — no data copy); throughput and tail latency
// recover. Not a paper figure: LogBase §3.5 sketches log-based migration,
// this measures it.

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

constexpr const char* kTable = "ycsb";
constexpr int kNodes = 5;
constexpr int kRanges = 10;

std::string KeyAt(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08llu",
                static_cast<unsigned long long>(index));
  return buf;
}

struct Phase {
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double throughput = 0;
  Histogram latency_us;
  std::vector<uint64_t> per_server;
  double imbalance = 0;  // max/mean of per-server served ops
};

/// Drains every server's load window; returns served ops per server.
std::vector<uint64_t> DrainPerServerOps(cluster::MiniCluster* cluster) {
  std::vector<uint64_t> ops(kNodes, 0);
  for (int node = 0; node < kNodes; node++) {
    balance::LoadReport report = cluster->server(node)->CollectLoadReport();
    for (const balance::TabletLoad& t : report.tablets) ops[node] += t.ops();
  }
  return ops;
}

double Imbalance(const std::vector<uint64_t>& per_server) {
  uint64_t total = 0, max_ops = 0;
  for (uint64_t n : per_server) {
    total += n;
    max_ops = std::max(max_ops, n);
  }
  if (total == 0) return 0;
  return static_cast<double>(max_ops) * kNodes / static_cast<double>(total);
}

/// One closed-loop pass: every client is an actor issuing
/// `ops_per_client` zipfian ops from `t0`, 50/50 read/update.
Phase RunOps(std::vector<std::unique_ptr<client::LogBaseClient>>* clients,
             ZipfianGenerator* zipf, std::vector<Random>* rngs,
             uint64_t ops_per_client, const std::string& value,
             sim::VirtualTime t0) {
  Phase phase;
  sim::Scheduler sched;
  for (size_t c = 0; c < clients->size(); c++) {
    sched.Add(t0, [&, c, done = uint64_t{0}](sim::SimContext& ctx) mutable {
      if (done++ == ops_per_client) return false;
      Random* rnd = &(*rngs)[c];
      std::string key = KeyAt(zipf->Next(rnd));
      sim::VirtualTime start = ctx.now();
      Status s;
      if (rnd->Bernoulli(0.5)) {
        s = (*clients)[c]->Put(kTable, 0, key, value, {});
      } else {
        s = (*clients)[c]->Get(kTable, 0, key, client::ReadOptions{}).status();
      }
      if (s.ok()) {
        phase.latency_us.Add(static_cast<double>(ctx.now() - start));
      } else {
        phase.failed++;
      }
      phase.ops++;
      return true;
    });
  }
  phase.seconds = static_cast<double>(sched.Run() - t0) / 1e6;
  if (phase.seconds > 0) {
    phase.throughput = static_cast<double>(phase.ops) / phase.seconds;
  }
  return phase;
}

void PrintPhase(const char* label, const Phase& phase) {
  std::printf("%-26s %9.0f ops/s  p50=%7.0fus  p99=%7.0fus  failed=%llu\n",
              label, phase.throughput, phase.latency_us.Percentile(50),
              phase.latency_us.Percentile(99),
              static_cast<unsigned long long>(phase.failed));
  std::printf("%-26s per-server ops [", "");
  for (int i = 0; i < kNodes; i++) {
    std::printf("%s%llu", i == 0 ? "" : " ",
                static_cast<unsigned long long>(phase.per_server[i]));
  }
  std::printf("]  imbalance=%.2fx\n", phase.imbalance);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Elasticity", "Zipfian hot spot, before/after the elastic "
                            "balancer (5 servers)");
  const uint64_t records = Scaled(20000);
  const uint64_t ops_per_client = Scaled(20000);
  std::printf("records: %llu, ops/client: %llu x %d clients, zipf 0.99 over "
              "ordered keys (hot head -> one hot tablet)\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(ops_per_client), kNodes);

  cluster::MiniClusterOptions options;
  options.num_nodes = kNodes;
  options.server_template.segment_bytes = 4 << 20;
  cluster::MiniCluster cluster(options);
  if (!cluster.Start().ok()) std::abort();
  std::vector<std::string> splits;
  for (int i = 1; i < kRanges; i++) {
    splits.push_back(KeyAt(records * i / kRanges));
  }
  if (!cluster.master()->CreateTable(kTable, {"v"}, {{"v"}}, splits).ok()) {
    std::abort();
  }

  std::vector<std::unique_ptr<client::LogBaseClient>> clients;
  std::vector<Random> rngs;
  for (int i = 0; i < kNodes; i++) {
    clients.push_back(cluster.NewClient(i));
    rngs.emplace_back(0xE1A5 + i);
  }
  const std::string value(1024, 'v');

  // Load all records (uniform), then drain the load windows.
  {
    sim::ScopedClock load_clock(QuiesceTime(cluster.dfs(), cluster.network()));
    for (uint64_t i = 0; i < records; i++) {
      if (!clients[i % kNodes]->Put(kTable, 0, KeyAt(i), value, {}).ok()) {
        std::abort();
      }
    }
  }
  (void)DrainPerServerOps(&cluster);

  ZipfianGenerator zipf(records, 0.99);

  // -- Phase A: skewed load, balancer off ---------------------------------
  Phase before = RunOps(&clients, &zipf, &rngs, ops_per_client, value,
                        QuiesceTime(cluster.dfs(), cluster.network()));
  before.per_server = DrainPerServerOps(&cluster);
  before.imbalance = Imbalance(before.per_server);

  // -- Balancer convergence: tick until a round changes nothing -----------
  int ticks = 0;
  uint64_t last_actions = ~0ull;
  for (int round = 0; round < 16; round++) {
    // Fresh traffic so each tick sees a live load window.
    (void)RunOps(&clients, &zipf, &rngs, ops_per_client / 8, value,
                 QuiesceTime(cluster.dfs(), cluster.network()));
    if (!cluster.balancer()->Tick().ok()) break;
    ticks++;
    const balance::BalancerStats stats = cluster.balancer()->stats();
    const uint64_t actions = stats.migrations + stats.splits;
    if (actions == last_actions) break;
    last_actions = actions;
  }
  const balance::BalancerStats stats = cluster.balancer()->stats();
  std::printf("balancer: converged after %d ticks (%llu migrations, %llu "
              "splits, %llu failed)\n",
              ticks, static_cast<unsigned long long>(stats.migrations),
              static_cast<unsigned long long>(stats.splits),
              static_cast<unsigned long long>(stats.failures));

  // -- Phase B: same skewed load, placement rebalanced --------------------
  (void)DrainPerServerOps(&cluster);
  Phase after = RunOps(&clients, &zipf, &rngs, ops_per_client, value,
                       QuiesceTime(cluster.dfs(), cluster.network()));
  after.per_server = DrainPerServerOps(&cluster);
  after.imbalance = Imbalance(after.per_server);

  PrintPhase("before balance:", before);
  PrintPhase("after balance:", after);
  std::printf("throughput gain: %.2fx, p99 %.0fus -> %.0fus, imbalance "
              "%.2fx -> %.2fx\n",
              after.throughput / before.throughput,
              before.latency_us.Percentile(99), after.latency_us.Percentile(99),
              before.imbalance, after.imbalance);
  PrintComponentBreakdown();

  BenchResult result("elastic_skew");
  result.Set("records", static_cast<double>(records));
  result.Set("clients", kNodes);
  auto add_phase = [&result](const char* label, const Phase& phase) {
    result.AddRow("phases", label,
                  {{"throughput_ops", phase.throughput},
                   {"p50_us", phase.latency_us.Percentile(50)},
                   {"p99_us", phase.latency_us.Percentile(99)},
                   {"failed", static_cast<double>(phase.failed)},
                   {"imbalance", phase.imbalance}});
  };
  add_phase("before", before);
  add_phase("after", after);
  result.Set("migrations", static_cast<double>(stats.migrations));
  result.Set("splits", static_cast<double>(stats.splits));
  result.Set("throughput_gain", after.throughput / before.throughput);
  result.WriteFile();
  PrintPaperClaim(
      "LogBase migrates tablets by handing over log access and rebuilding "
      "in-memory indexes (§3.5/§3.8) — no data files move, so the system "
      "rebalances a skewed workload live; served load evens out and tail "
      "latency drops once the hot tablet is split and spread.");
  return 0;
}

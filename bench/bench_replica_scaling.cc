// Read scaling — stale-tolerant read throughput vs. the number of
// snapshot-serving read replicas (0/1/2/4), under a write-heavy foreground
// on the primary. Replicas tail the shared DFS log (no write-path changes,
// no extra copies of the data) and serve MVCC reads at their applied
// watermark, so read capacity scales by adding compute only: the primary's
// disk/NIC queues stop being the read bottleneck while its write path is
// untouched. Not a paper figure: LogBase §6 names multi-tier replication as
// future work; this measures the disaggregated-read design point.

#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

constexpr const char* kTable = "reads";
// Nodes 0-4 host the DFS/servers/replicas; nodes 5-11 host only clients, so
// a serving NIC's capacity goes to serving (colocating clients with
// replicas makes every NIC both a client and a server bottleneck and
// flattens the scaling curve).
constexpr int kNodes = 12;
constexpr int kFirstClientNode = 5;
constexpr int kClientNodes = 7;
// Enough closed-loop readers to saturate a single serving NIC at R=0 —
// scaling only shows once the baseline is capacity-bound, not latency-bound.
constexpr int kReadClients = 32;
constexpr int kWriteClients = 2;

std::string KeyAt(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08llu",
                static_cast<unsigned long long>(index));
  return buf;
}

struct ConfigResult {
  int replicas = 0;
  double read_throughput = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double write_p99_us = 0;
  uint64_t replica_served = 0;
  uint64_t primary_fallbacks = 0;
  uint64_t read_failed = 0;
};

ConfigResult RunConfig(int num_replicas, uint64_t records,
                       uint64_t ops_per_client, const std::string& value) {
  cluster::MiniClusterOptions options;
  options.num_nodes = kNodes;
  options.num_replicas = num_replicas;
  // Large segments: a segment rotation mid-measurement makes every tailer's
  // next pread seek to the fresh locus (~12ms positioning), and that pread's
  // delivery parks the replica's ingress NIC that far in the future, so the
  // p99 of every config measures rotation artifacts instead of scaling.
  options.server_template.segment_bytes = 256 << 20;
  // Same cache budget on primaries and replicas: the scaling measured here
  // is compute/NIC disaggregation, not cache-capacity asymmetry.
  options.server_template.read_buffer_bytes = 32ull << 20;
  cluster::MiniCluster cluster(options);
  if (!cluster.Start().ok()) std::abort();
  if (!cluster.master()->CreateTable(kTable, {"v"}, {{"v"}}, {}).ok()) {
    std::abort();
  }

  std::vector<std::unique_ptr<client::LogBaseClient>> readers;
  std::vector<std::unique_ptr<client::LogBaseClient>> writers;
  for (int i = 0; i < kReadClients; i++) {
    readers.push_back(
        cluster.NewClient(kFirstClientNode + i % kClientNodes));
  }
  for (int i = 0; i < kWriteClients; i++) {
    writers.push_back(
        cluster.NewClient(kFirstClientNode + i % kClientNodes));
  }

  // Load, then attach every tablet to every replica and let them catch up.
  {
    sim::ScopedClock load_clock(QuiesceTime(cluster.dfs(), cluster.network()));
    for (uint64_t i = 0; i < records; i++) {
      if (!writers[i % kWriteClients]->Put(kTable, 0, KeyAt(i), value, {}).ok()) {
        std::abort();
      }
    }
  }
  for (const auto& [uid, location] :
       cluster.master()->AssignmentsSnapshot()) {
    for (int i = 0; i < num_replicas; i++) {
      if (!cluster.master()->AddReplica(uid).ok()) std::abort();
    }
  }
  {
    sim::ScopedClock seed_clock(QuiesceTime(cluster.dfs(), cluster.network()));
    if (!cluster.TickReplicas().ok()) std::abort();
  }
  for (auto& c : readers) c->InvalidateCache();

  const sim::VirtualTime t0 = QuiesceTime(cluster.dfs(), cluster.network());
  cluster.ResetMetrics();

  // Closed loop: writers hammer the primary while readers issue
  // stale-tolerant point reads, each client an actor doing one op per step.
  ConfigResult result;
  result.replicas = num_replicas;
  Histogram read_latency, write_latency;

  client::ReadOptions stale;
  stale.allow_stale = true;
  uint64_t reads = 0;
  uint64_t ops_started = 0;
  sim::VirtualTime read_end = t0;
  sim::Scheduler sched;
  // Every round of client ops (one op's worth per client) each replica
  // polls the log once, as its own actor starting at the clock of the op
  // that completed the round; its DFS reads contend with everything else,
  // as they would. Frequent tiny polls (one round's appends, ~16KB) beat
  // rare big catch-ups: a lumped 100KB+ pread seeks the disk, then parks
  // the replica's ingress NIC milliseconds into the future, and every read
  // request behind it stalls. The NICs are full duplex, so poll ingress
  // never contends with response egress — only the poll's own wire time
  // matters, and at one round of log per poll that is ~0.1ms. Aggregate
  // tail-read bytes still scale with replica count — every replica must
  // see every log record, the cost of this design.
  auto start_op = [&] {
    if (++ops_started % (kReadClients + kWriteClients) != 0) return;
    for (int i = 0; i < num_replicas; i++) {
      sched.Add(sched.now(), [&cluster, i](sim::SimContext&) {
        if (!cluster.replica(i)->TickTailers().ok()) std::abort();
        return false;
      });
    }
  };
  for (int w = 0; w < kWriteClients; w++) {
    sched.Add(t0, [&, w, rng = Random(0x5CA1E + kReadClients + w),
                   done = uint64_t{0}](sim::SimContext& ctx) mutable {
      if (done++ == ops_per_client) return false;
      start_op();
      sim::VirtualTime start = ctx.now();
      if (writers[w]->Put(kTable, 0, KeyAt(rng.Uniform(records)), value, {})
              .ok()) {
        write_latency.Add(static_cast<double>(ctx.now() - start));
      }
      return true;
    });
  }
  for (int r = 0; r < kReadClients; r++) {
    sched.Add(t0, [&, r, rng = Random(0x5CA1E + r),
                   done = uint64_t{0}](sim::SimContext& ctx) mutable {
      if (done++ == ops_per_client) {
        read_end = std::max(read_end, ctx.now());
        return false;
      }
      start_op();
      sim::VirtualTime start = ctx.now();
      auto got = readers[r]->Get(kTable, 0, KeyAt(rng.Uniform(records)), stale);
      reads++;
      if (got.ok()) {
        read_latency.Add(static_cast<double>(ctx.now() - start));
      } else {
        result.read_failed++;
      }
      return true;
    });
  }
  sched.Run();

  const double read_seconds = static_cast<double>(read_end - t0) / 1e6;
  result.read_throughput =
      read_seconds > 0 ? static_cast<double>(reads) / read_seconds : 0;
  result.read_p50_us = read_latency.Percentile(50);
  result.read_p99_us = read_latency.Percentile(99);
  result.write_p99_us = write_latency.Percentile(99);
  obs::MetricsSnapshot m = cluster.DumpMetrics();
  result.replica_served = m.CounterValue("replica.read.served");
  result.primary_fallbacks = m.CounterValue("client.replica.fallbacks");
  if (std::getenv("LOGBASE_BENCH_BREAKDOWN") != nullptr) {
    PrintComponentBreakdown(m, "this config");
    sim::NetworkModel* net = cluster.network();
    std::printf("  busy time since cluster start (load included):\n");
    for (int i = 0; i < net->num_nodes(); i++) {
      std::printf("  node %2d  tx=%8llu us  rx=%8llu us", i,
                  static_cast<unsigned long long>(
                      net->nic_tx(i)->total_busy_us()),
                  static_cast<unsigned long long>(
                      net->nic_rx(i)->total_busy_us()));
      if (i < cluster.dfs()->num_nodes()) {
        std::printf("  disk=%8llu us",
                    static_cast<unsigned long long>(cluster.dfs()
                                                        ->data_node(i)
                                                        ->disk()
                                                        ->resource()
                                                        ->total_busy_us()));
      }
      std::printf("\n");
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Read scaling",
              "Stale-tolerant read throughput vs. read replicas "
              "(5 servers, write-heavy foreground)");
  const uint64_t records = Scaled(20000);
  const uint64_t ops_per_client = Scaled(2000);
  std::printf("records: %llu x 8KB, %d read + %d write clients, "
              "%llu rounds, uniform keys, reads allow_stale\n",
              static_cast<unsigned long long>(records), kReadClients,
              kWriteClients, static_cast<unsigned long long>(ops_per_client));

  // 8KB values: the response wire time (~70us on 1 GbE) dominates the
  // per-RPC software overhead, so the serving node's NIC bandwidth — the
  // resource replicas multiply — is what saturates first.
  const std::string value(8192, 'v');
  BenchResult result("replica_scaling");
  result.Set("records", static_cast<double>(records));
  result.Set("read_clients", kReadClients);
  result.Set("write_clients", kWriteClients);

  std::vector<ConfigResult> configs;
  for (int num_replicas : {0, 1, 2, 4}) {
    ConfigResult r = RunConfig(num_replicas, records, ops_per_client, value);
    configs.push_back(r);
    std::printf("replicas=%d  reads %9.0f ops/s  p50=%7.0fus  p99=%7.0fus  "
                "write_p99=%7.0fus  served=%llu fallbacks=%llu failed=%llu\n",
                r.replicas, r.read_throughput, r.read_p50_us, r.read_p99_us,
                r.write_p99_us,
                static_cast<unsigned long long>(r.replica_served),
                static_cast<unsigned long long>(r.primary_fallbacks),
                static_cast<unsigned long long>(r.read_failed));
    char label[16];
    std::snprintf(label, sizeof(label), "r%d", r.replicas);
    result.AddRow(
        "configs", label,
        {{"replicas", static_cast<double>(r.replicas)},
         {"read_throughput_ops", r.read_throughput},
         {"read_p50_us", r.read_p50_us},
         {"read_p99_us", r.read_p99_us},
         {"write_p99_us", r.write_p99_us},
         {"replica_served", static_cast<double>(r.replica_served)},
         {"primary_fallbacks", static_cast<double>(r.primary_fallbacks)}});
  }

  const ConfigResult& base = configs.front();
  const ConfigResult& four = configs.back();
  double scaling = base.read_throughput > 0
                       ? four.read_throughput / base.read_throughput
                       : 0;
  double write_p99_ratio =
      base.write_p99_us > 0 ? four.write_p99_us / base.write_p99_us : 0;
  std::printf("read scaling 4 replicas vs 0: %.2fx (target >= 2x); "
              "primary write p99 ratio: %.2fx\n",
              scaling, write_p99_ratio);
  result.Set("scaling_4v0", scaling);
  result.Set("write_p99_ratio_4v0", write_p99_ratio);
  result.WriteFile();

  PrintPaperClaim(
      "The log is the database: because every mutation is durable in the "
      "shared DFS log, read capacity scales by adding stateless compute "
      "that tails the log and serves bounded-staleness snapshots — no "
      "second copy of the data, no write-path changes (cf. LogBase §6 "
      "multi-tier replication as future work).");
  return 0;
}

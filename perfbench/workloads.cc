#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/client/client.h"
#include "src/cluster/mini_cluster.h"
#include "src/obs/metrics.h"
#include "src/query/plan.h"
#include "src/util/random.h"

namespace perfbench {

namespace {

using logbase::Random;
using logbase::Slice;
using logbase::Status;
using logbase::cluster::MiniCluster;
using logbase::obs::MetricPoint;
using logbase::obs::MetricsRegistry;
using logbase::obs::MetricsSnapshot;

constexpr int kNodes = 4;
constexpr int kTablets = 8;
constexpr int kMaxFailureMessages = 8;

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

std::string NumberedKey(const char* prefix, uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu", prefix,
                static_cast<unsigned long long>(i));
  return buf;
}

/// A value unique to (key, version), `bytes` long.
std::string MakeValue(const std::string& key, uint64_t version, size_t bytes) {
  std::string v = key + "#" + std::to_string(version) + "#";
  v.resize(std::max(bytes, v.size()),
           static_cast<char>('a' + (version * 7 + key.back()) % 26));
  return v;
}

/// Per-client input stream: one generator per (seed, workload, client).
Random ClientRng(uint64_t seed, uint64_t salt, int client) {
  return Random((seed + 1) * 0x9E3779B97F4A7C15ull ^
                (salt << 32) ^
                static_cast<uint64_t>(client + 1) * 0xBF58476D1CE4E5B9ull);
}

/// State every workload shares: the result under construction, the tracer,
/// the op id spans carry, host op timing and call accounting.
struct Run {
  Run(RepResult* result, Tracer* span_tracer)
      : r(result), tracer(span_tracer) {}

  RepResult* r;
  Tracer* tracer;
  uint64_t op = 0;
  HostOpClock host_ops;
  uint64_t calls = 0;
  uint64_t call_errors = 0;
  uint64_t failed_checks = 0;
  /// Program-counter traffic and host time of verification reads made
  /// inside the measured phase, taken back out of the phase's numbers.
  MetricsSnapshot excluded;
  int64_t excluded_host_ns = 0;

  void Fail(const std::string& check, const std::string& detail) {
    if (failed_checks++ < kMaxFailureMessages) {
      r->failures.push_back("check " + check + " failed: " + detail);
    }
  }
  void Call(const Status& s) {
    calls++;
    if (!s.ok()) call_errors++;
  }
};

/// Runs `fn` with no virtual clock installed, so nothing it does is charged
/// to the simulated hardware, and takes its program-counter traffic and host
/// time out of the measured phase.
template <typename Fn>
void Unmeasured(Run* run, Fn&& fn) {
  int64_t h0 = HostNs();
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  {
    SimContext::Scope no_clock(nullptr);
    fn();
  }
  MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().Delta(before);
  for (const auto& [name, p] : delta.points) {
    MetricPoint& acc = run->excluded.points[name];
    acc.kind = p.kind;
    acc.count += p.count;
    acc.sum += p.sum;
  }
  run->excluded_host_ns += HostNs() - h0;
}

/// The measured phase's metrics minus the excluded verification traffic.
MetricsSnapshot PhaseMetrics(const Run& run) {
  MetricsSnapshot m = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, ex] : run.excluded.points) {
    auto it = m.points.find(name);
    if (it == m.points.end()) continue;
    MetricPoint& p = it->second;
    p.count -= std::min(p.count, ex.count);
    p.sum -= ex.sum;
    if (p.kind == MetricPoint::Kind::kHistogram) {
      p.avg = p.count > 0 ? p.sum / static_cast<double>(p.count) : 0;
    }
  }
  return m;
}

double Avg(const MetricsSnapshot& m, const char* name) {
  const MetricPoint* p = m.Find(name);
  return p != nullptr && p->count > 0 ? p->avg : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr VirtualTime kForever = std::numeric_limits<VirtualTime>::max();

/// Which ops a phase runs. An actor starts an op only while its clock is
/// before `end` and fewer than `max_ops` ops have started; every started op
/// runs to completion. The window closes at `end`, or at the start of the
/// max_ops-th op if that comes first. A fixed virtual span (not a fixed op
/// count) keeps the slowest straggler out of the throughput figure; the cap
/// bounds host time if the system gets much faster.
struct Window {
  Window(VirtualTime end_us, uint64_t cap)
      : end(end_us), max_ops(cap), close(end_us) {}

  bool Start(VirtualTime now) {
    if (now >= end || started >= max_ops) return false;
    if (++started == max_ops) close = now;
    return true;
  }
  /// Ops that succeeded by the time the window closed.
  uint64_t CompletedByClose() const {
    return static_cast<uint64_t>(std::count_if(
        done.begin(), done.end(), [&](VirtualTime t) { return t <= close; }));
  }

  const VirtualTime end;
  const uint64_t max_ops;
  uint64_t started = 0;
  VirtualTime close;
  std::vector<VirtualTime> done;  // completion times of successful ops
};

/// Closed-loop clients: `clients` actors start ops while `window` admits
/// them; `op` runs one op under the actor's clock and returns whether it
/// succeeded.
template <typename Op>
void ClosedLoop(int clients, VirtualTime start, Window* window, Op op) {
  Scheduler sched;
  for (int c = 0; c < clients; c++) {
    sched.Add(start, [&, c](SimContext& ctx) {
      if (!window->Start(ctx.now())) return false;
      if (op(&sched, c, window->started - 1, ctx)) {
        window->done.push_back(ctx.now());
      }
      return true;
    });
  }
  sched.Run();
}

/// Boundaries of the measured phase on both clocks.
struct Phase {
  VirtualTime t0 = 0;
  ResourceBusy busy0;
  int64_t h0 = 0;

  /// Also records the set-up time since `boot_host` and forgets
  /// verification traffic excluded during warm-up.
  void Begin(MiniCluster* cluster, Run* run, int64_t boot_host) {
    run->r->setup_s = static_cast<double>(HostNs() - boot_host) / 1e9;
    run->excluded = MetricsSnapshot();
    run->excluded_host_ns = 0;
    t0 = QuiesceTime(cluster);
    busy0 = SnapshotBusy(cluster);
    cluster->ResetMetrics();
    h0 = HostNs();
  }
};

/// Utilization of every disk and NIC over [t0, t1]: Δbusy ÷ span.
void FillUtilization(RepResult* r, MiniCluster* cluster, const Phase& phase,
                     VirtualTime t1) {
  ResourceBusy b = SnapshotBusy(cluster);
  double span = static_cast<double>(std::max<VirtualTime>(1, t1 - phase.t0));
  double best = -1;
  auto scan = [&](const std::vector<VirtualTime>& now,
                  const std::vector<VirtualTime>& then, const char* kind,
                  double* max_util, double* sum_util) {
    for (size_t i = 0; i < now.size(); i++) {
      double u = static_cast<double>(now[i] - then[i]) / span;
      *max_util = std::max(*max_util, u);
      if (sum_util != nullptr) *sum_util += u;
      if (u > best) {
        best = u;
        char name[48];
        std::snprintf(name, sizeof(name), "%s%zu (%.1f%% busy)", kind, i,
                      100.0 * u);
        r->bottleneck = name;
      }
    }
  };
  double disk_max = 0, disk_sum = 0, tx_max = 0, rx_max = 0;
  scan(b.disk, phase.busy0.disk, "disk", &disk_max, &disk_sum);
  scan(b.nic_tx, phase.busy0.nic_tx, "nic_tx", &tx_max, nullptr);
  scan(b.nic_rx, phase.busy0.nic_rx, "nic_rx", &rx_max, nullptr);
  r->layers["sim.disk.util_max"] = disk_max;
  r->layers["sim.disk.util_mean"] =
      b.disk.empty() ? 0 : disk_sum / static_cast<double>(b.disk.size());
  r->layers["sim.nic_tx.util_max"] = tx_max;
  r->layers["sim.nic_rx.util_max"] = rx_max;
}

/// What a workload measured itself, for the per-layer ratios.
struct LayerInputs {
  uint64_t gets = 0;
  double user_write_bytes = 0;
  uint64_t queries = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  uint64_t bytes_shipped = 0;
  uint64_t stale_slices = 0;
  uint64_t stale_slices_from_replica = 0;
  double lag_us_sum = 0;
  uint64_t lag_samples = 0;
  double tick_us_sum = 0;
  uint64_t ticks = 0;
  double checkpoint_us_sum = 0;
  uint64_t checkpoints = 0;
  logbase::tablet::RecoveryStats recovery;
};

/// Every per-layer metric, on every workload; a layer the workload leaves
/// idle reports 0 (the report states why).
void FillLayers(RepResult* r, const MetricsSnapshot& m, const LayerInputs& in) {
  auto& L = r->layers;
  L["log.batch_records"] = Avg(m, "log.append.batch_size");
  L["log.append_us.avg"] = Avg(m, "log.append.us");
  const MetricPoint* append = m.Find("log.append.us");
  L["log.append_us.p99"] =
      append != nullptr && append->count > 0 ? append->p99 : 0;
  L["log.quorum_wait_us.avg"] = Avg(m, "log.append.quorum_wait_us");
  L["log.read_us.avg"] = Avg(m, "log.read.us");

  L["dfs.write_amp"] =
      Ratio(static_cast<double>(m.CounterValue("dfs.write.bytes") +
                                m.CounterValue("dfs.replication.bytes")),
            in.user_write_bytes);
  const MetricPoint* pread = m.Find("dfs.pread.us");
  double preads = pread != nullptr ? static_cast<double>(pread->count) : 0;
  L["dfs.pread_per_get"] = Ratio(preads, static_cast<double>(in.gets));
  L["dfs.pread_us.avg"] = Avg(m, "dfs.pread.us");
  L["dfs.pread_bytes_per_get"] =
      Ratio(static_cast<double>(m.CounterValue("dfs.pread.bytes")),
            static_cast<double>(in.gets));

  double hits = static_cast<double>(m.CounterValue("tablet.read_buffer.hits"));
  double misses =
      static_cast<double>(m.CounterValue("tablet.read_buffer.misses"));
  L["tablet.read_buffer.hit_ratio"] = Ratio(hits, hits + misses);
  L["tablet.checkpoint_us"] =
      Ratio(in.checkpoint_us_sum, static_cast<double>(in.checkpoints));
  L["tablet.recovery.redo_records"] =
      static_cast<double>(in.recovery.redo_records);
  L["tablet.recovery.redo_bytes"] = static_cast<double>(in.recovery.redo_bytes);
  L["tablet.recovery.checkpoint_entries"] =
      static_cast<double>(in.recovery.checkpoint_entries);

  L["index.probe_us.avg"] = Avg(m, "index.probe.us");
  L["index.probe_depth.avg"] = Avg(m, "index.probe.depth");

  L["query.rows_scanned_per_returned"] =
      Ratio(static_cast<double>(in.rows_scanned),
            static_cast<double>(in.rows_returned));
  L["query.bytes_shipped_per_query"] =
      Ratio(static_cast<double>(in.bytes_shipped),
            static_cast<double>(in.queries));

  L["txn.commit_ratio"] =
      Ratio(static_cast<double>(m.CounterValue("txn.committed")),
            static_cast<double>(m.CounterValue("txn.begun")));
  L["txn.validation_failures"] =
      static_cast<double>(m.CounterValue("txn.validation_failures"));
  L["txn.lock_failures"] =
      static_cast<double>(m.CounterValue("txn.lock_failures"));
  L["txn.commit_us.avg"] = Avg(m, "txn.commit.us");

  L["replica.served_share"] =
      Ratio(static_cast<double>(in.stale_slices_from_replica),
            static_cast<double>(in.stale_slices));
  L["replica.fallbacks"] =
      static_cast<double>(m.CounterValue("client.replica.fallbacks"));
  L["replica.watermark_lag_us"] =
      Ratio(in.lag_us_sum, static_cast<double>(in.lag_samples));
  L["replica.tick_us"] = Ratio(in.tick_us_sum, static_cast<double>(in.ticks));

  // Metrics registered by an earlier repetition linger at zero; skip them.
  for (const auto& [name, p] : m.points) {
    if (p.count == 0 && p.sum == 0 && p.gauge == 0) continue;
    r->fingerprint[name + ".count"] = static_cast<double>(p.count);
    r->fingerprint[name + ".sum"] = p.sum;
    r->fingerprint[name + ".gauge"] = static_cast<double>(p.gauge);
  }
}

/// Fills the end-to-end, host and accounting fields every workload shares.
void FinishRun(Run* run, const Phase& phase, const Window& window,
               int64_t phase_end_host) {
  RepResult* r = run->r;
  r->span_us = static_cast<double>(window.close - phase.t0);
  r->completed = window.CompletedByClose();
  r->calls = run->calls;
  r->call_errors = run->call_errors;
  r->attempted = window.started;
  r->failed = window.started - window.done.size();
  r->phase_host_s =
      static_cast<double>(phase_end_host - phase.h0 - run->excluded_host_ns) /
      1e9;
  run->host_ops.Report(r);
}

std::unique_ptr<MiniCluster> Boot(size_t read_buffer_bytes, int replicas,
                                  const std::string& table,
                                  const std::vector<std::string>& columns,
                                  const std::vector<std::string>& splits,
                                  Run* run) {
  logbase::cluster::MiniClusterOptions options;
  options.num_nodes = kNodes;
  options.num_replicas = replicas;
  // With read replicas, every node keeps a copy of every log block: the
  // replica server's log reads (tailing, and one seek per row of a
  // replica-served query) stay on its own disk, and quorum appends (3 of 4
  // copies) never wait on that disk.
  if (replicas > 0) options.dfs.replication = kNodes;
  options.server_template.read_buffer_bytes = read_buffer_bytes;
  auto cluster = std::make_unique<MiniCluster>(options);
  Status s = cluster->Start();
  if (!s.ok()) run->Fail("boot", s.ToString());
  auto schema = cluster->master()->CreateTable(table, columns, {columns},
                                               splits);
  if (!schema.ok()) run->Fail("boot", schema.status().ToString());
  return cluster;
}

/// Tablet index -> server id, in key order.
std::vector<int> TabletServers(MiniCluster* cluster) {
  std::vector<std::pair<std::string, int>> by_start;
  for (const auto& [uid, loc] : cluster->master()->AssignmentsSnapshot()) {
    by_start.emplace_back(loc.descriptor.start_key, loc.server_id);
  }
  std::sort(by_start.begin(), by_start.end());
  std::vector<int> servers;
  for (const auto& [start, server] : by_start) servers.push_back(server);
  return servers;
}

/// Loads `count` rows through PutBatch, 64 consecutive keys per batch, with
/// four loader actors starting at the cluster's quiesce time.
template <typename RowFn>
void Load(MiniCluster* cluster,
          std::vector<std::unique_ptr<logbase::client::LogBaseClient>>* clients,
          const std::string& table, uint64_t count, RowFn row, Run* run) {
  constexpr uint64_t kLoadBatch = 64;
  Window window(kForever, (count + kLoadBatch - 1) / kLoadBatch);
  ClosedLoop(4, QuiesceTime(cluster), &window,
             [&](Scheduler*, int c, uint64_t b, SimContext&) {
               logbase::client::WriteBatch batch;
               for (uint64_t i = b * kLoadBatch;
                    i < std::min(count, (b + 1) * kLoadBatch); i++) {
                 auto [key, value] = row(i);
                 batch.Put(0, key, value);
               }
               Status s = (*clients)[c]->PutBatch(table, batch);
               if (!s.ok()) run->Fail("load", s.ToString());
               return s.ok();
             });
}

std::vector<std::unique_ptr<logbase::client::LogBaseClient>> MakeClients(
    MiniCluster* cluster, int n) {
  std::vector<std::unique_ptr<logbase::client::LogBaseClient>> clients;
  for (int c = 0; c < n; c++) clients.push_back(cluster->NewClient(c % kNodes));
  return clients;
}

// ---------------------------------------------------------------------------
// point_read: 16 closed-loop clients, 95% Get / 5% Put, scrambled zipfian
// 0.99 over 1-KB records in 8 tablets; data ~4x the aggregate read buffer.
// ---------------------------------------------------------------------------

namespace point_read {

constexpr char kTable[] = "usertable";
constexpr int kClients = 16;
constexpr uint64_t kRecords = 4096;
constexpr size_t kValueBytes = 1024;
constexpr size_t kReadBufferBytes = 256 << 10;
constexpr double kPutShare = 0.05;
constexpr uint64_t kWarmupOps = 2000;
constexpr VirtualTime kMeasuredUs = 2'500'000;
constexpr uint64_t kMaxMeasuredOps = 20000;

std::string Key(uint64_t i) { return NumberedKey("user", i); }

RepResult RunOnce(uint64_t seed, Tracer* tracer) {
  RepResult r;
  Run run(&r, tracer);
  const int64_t boot_host = HostNs();
  std::vector<std::string> splits;
  for (int t = 1; t < kTablets; t++) {
    splits.push_back(Key(kRecords * t / kTablets));
  }
  auto cluster = Boot(kReadBufferBytes, 0, kTable, {"v"}, splits, &run);
  auto clients = MakeClients(cluster.get(), kClients);

  std::vector<uint64_t> version(kRecords, 1);
  Load(cluster.get(), &clients, kTable, kRecords,
       [&](uint64_t i) {
         return std::make_pair(Key(i), MakeValue(Key(i), 1, kValueBytes));
       },
       &run);

  logbase::ScrambledZipfianGenerator zipf(kRecords, 0.99);
  std::vector<Random> rngs;
  for (int c = 0; c < kClients; c++) rngs.push_back(ClientRng(seed, 1, c));

  Samples get_lat, put_lat;
  std::vector<uint32_t> touches(kRecords, 0);
  LayerInputs in;
  bool measuring = false;
  auto op = [&](Scheduler*, int c, uint64_t, SimContext& ctx) {
    const uint64_t id = ++run.op;
    Random* rng = &rngs[c];
    const bool is_put = rng->Bernoulli(kPutShare);
    const uint64_t k = zipf.Next(rng);
    const std::string key = Key(k);
    if (measuring) touches[k]++;
    const VirtualTime start = ctx.now();
    const int64_t h0 = HostNs();
    if (is_put) {
      ScopedSpan root(tracer, "bench", "op.put", id);
      const std::string value = MakeValue(key, version[k] + 1, kValueBytes);
      Status s;
      {
        ScopedSpan span(tracer, "client", "LogBaseClient::Put", id);
        s = clients[c]->Put(kTable, 0, key, value, {});
      }
      if (s.ok()) version[k]++;
      if (!measuring) return s.ok();
      run.Call(s);
      run.host_ops.Record("write", HostNs() - h0);
      if (!s.ok()) {
        run.Fail("point_read.put_ok", key + ": " + s.ToString());
        return false;
      }
      put_lat.Add(static_cast<double>(ctx.now() - start));
      in.user_write_bytes += static_cast<double>(key.size() + value.size());
      return true;
    }
    ScopedSpan root(tracer, "bench", "op.get", id);
    auto got = [&] {
      ScopedSpan span(tracer, "client", "LogBaseClient::Get", id);
      return clients[c]->Get(kTable, 0, key, logbase::client::ReadOptions{});
    }();
    if (!measuring) return got.ok();
    run.Call(got.status());
    run.host_ops.Record("get", HostNs() - h0);
    in.gets++;
    if (!got.ok()) {
      run.Fail("point_read.get_ok", key + ": " + got.status().ToString());
      return false;
    }
    get_lat.Add(static_cast<double>(ctx.now() - start));
    if (!got->found() ||
        got->value() != MakeValue(key, version[k], kValueBytes)) {
      run.Fail("point_read.get_returns_last_write",
               key + " expected version " + std::to_string(version[k]));
    }
    return true;
  };

  Window warmup(kForever, kWarmupOps);
  ClosedLoop(kClients, QuiesceTime(cluster.get()), &warmup, op);

  Phase phase;
  phase.Begin(cluster.get(), &run, boot_host);
  measuring = true;
  Window window(phase.t0 + kMeasuredUs, kMaxMeasuredOps);
  ClosedLoop(kClients, phase.t0, &window, op);
  const int64_t phase_end_host = HostNs();

  FinishRun(&run, phase, window, phase_end_host);
  r.latency["get"] = get_lat.values();
  r.latency["write"] = put_lat.values();
  FillUtilization(&r, cluster.get(), phase, QuiesceTime(cluster.get()));
  FillLayers(&r, PhaseMetrics(run), in);

  // Input properties: working set against the caches, and key skew.
  const double data_bytes = static_cast<double>(
      kRecords * (Key(0).size() + kValueBytes));
  const double buffer_bytes = static_cast<double>(kNodes * kReadBufferBytes);
  r.props["data_over_read_buffer"] = data_bytes / buffer_bytes;
  std::vector<uint32_t> sorted = touches;
  std::sort(sorted.rbegin(), sorted.rend());
  auto share_of_top = [&](uint64_t n) {
    double top = 0, all = 0;
    for (uint64_t i = 0; i < sorted.size(); i++) {
      if (i < n) top += sorted[i];
      all += sorted[i];
    }
    return Ratio(top, all);
  };
  r.props["zipf.top1pct_keys_op_share"] = share_of_top(kRecords / 100);
  // The hottest keys that fit in the aggregate read buffer: the share of
  // ops a perfect cache could absorb.
  r.props["zipf.cacheable_hot_set_op_share"] = share_of_top(
      static_cast<uint64_t>(buffer_bytes /
                            static_cast<double>(Key(0).size() + kValueBytes)));
  return r;
}

}  // namespace point_read

// ---------------------------------------------------------------------------
// ingest_recover: 16 closed-loop writers, 16-row PutBatches over uniform
// keys with ~5% deletes; every server checkpoints at the midpoint, writing
// continues, then one server crashes and restarts.
// ---------------------------------------------------------------------------

namespace ingest_recover {

constexpr char kTable[] = "events";
constexpr int kClients = 16;
constexpr uint64_t kKeys = 4096;
constexpr size_t kValueBytes = 512;
constexpr size_t kReadBufferBytes = 256 << 10;
constexpr int kBatchRows = 16;
constexpr double kDeleteShare = 0.05;
constexpr uint64_t kWarmupBatches = 128;
constexpr VirtualTime kMeasuredUs = 800'000;
constexpr uint64_t kMaxMeasuredBatches = 4000;
constexpr int kVictim = 1;

std::string Key(uint64_t i) { return NumberedKey("key", i); }

struct KeyState {
  uint64_t version = 1;
  bool live = true;
  bool unknown = false;  // a failed write left it ambiguous
};

RepResult RunOnce(uint64_t seed, Tracer* tracer) {
  RepResult r;
  Run run(&r, tracer);
  const int64_t boot_host = HostNs();
  std::vector<std::string> splits;
  for (int t = 1; t < kTablets; t++) {
    splits.push_back(Key(kKeys * t / kTablets));
  }
  auto cluster = Boot(kReadBufferBytes, 0, kTable, {"v"}, splits, &run);
  auto clients = MakeClients(cluster.get(), kClients);

  std::vector<KeyState> model(kKeys);
  Load(cluster.get(), &clients, kTable, kKeys,
       [&](uint64_t i) {
         return std::make_pair(Key(i), MakeValue(Key(i), 1, kValueBytes));
       },
       &run);

  std::vector<Random> rngs;
  for (int c = 0; c < kClients; c++) rngs.push_back(ClientRng(seed, 2, c));

  Samples batch_lat;
  LayerInputs in;
  Phase phase;
  bool measuring = false;
  bool checkpointed = false;
  int64_t checkpoint_host_ns = 0;
  auto checkpoint = [&](int server) {
    return [&, server](SimContext& ctx) {
      const VirtualTime start = ctx.now();
      const int64_t h0 = HostNs();
      Status s;
      {
        ScopedSpan span(tracer, "tablet", "TabletServer::Checkpoint", 0);
        s = cluster->server(server)->Checkpoint();
      }
      checkpoint_host_ns += HostNs() - h0;
      if (!s.ok()) run.Fail("ingest_recover.checkpoint_ok", s.ToString());
      in.checkpoint_us_sum += static_cast<double>(ctx.now() - start);
      in.checkpoints++;
      return false;
    };
  };
  auto op = [&](Scheduler* sched, int c, uint64_t, SimContext& ctx) {
    // The first batch past the phase's midpoint triggers every server's
    // checkpoint, concurrent with the writes that follow.
    if (measuring && !checkpointed &&
        sched->now() >= phase.t0 + kMeasuredUs / 2) {
      checkpointed = true;
      for (int s = 0; s < kNodes; s++) sched->Add(sched->now(), checkpoint(s));
    }
    const uint64_t id = ++run.op;
    Random* rng = &rngs[c];
    std::set<uint64_t> keys;
    while (keys.size() < static_cast<size_t>(kBatchRows)) {
      keys.insert(rng->Uniform(kKeys));
    }
    logbase::client::WriteBatch batch;
    std::vector<std::pair<uint64_t, bool>> rows;  // key, is_delete
    double bytes = 0;
    for (uint64_t k : keys) {
      const bool del = rng->Bernoulli(kDeleteShare);
      const std::string key = Key(k);
      if (del) {
        batch.Delete(0, key);
        bytes += static_cast<double>(key.size());
      } else {
        std::string value = MakeValue(key, model[k].version + 1, kValueBytes);
        bytes += static_cast<double>(key.size() + value.size());
        batch.Put(0, key, value);
      }
      rows.emplace_back(k, del);
    }
    ScopedSpan root(tracer, "bench", "op.put_batch", id);
    const VirtualTime start = ctx.now();
    const int64_t h0 = HostNs();
    Status s;
    {
      ScopedSpan span(tracer, "client", "LogBaseClient::PutBatch", id);
      s = clients[c]->PutBatch(kTable, batch);
    }
    if (measuring) {
      run.Call(s);
      run.host_ops.Record("write", HostNs() - h0);
    }
    if (!s.ok()) {
      for (const auto& [k, del] : rows) model[k].unknown = true;
      if (measuring) run.Fail("ingest_recover.put_batch_ok", s.ToString());
      return false;
    }
    for (const auto& [k, del] : rows) {
      if (del) {
        model[k].live = false;
      } else {
        model[k].version++;
        model[k].live = true;
      }
    }
    if (measuring) {
      batch_lat.Add(static_cast<double>(ctx.now() - start));
      in.user_write_bytes += bytes;
    }
    return true;
  };

  Window warmup(kForever, kWarmupBatches);
  ClosedLoop(kClients, QuiesceTime(cluster.get()), &warmup, op);

  phase.Begin(cluster.get(), &run, boot_host);
  measuring = true;
  Window window(phase.t0 + kMeasuredUs, kMaxMeasuredBatches);
  ClosedLoop(kClients, phase.t0, &window, op);
  if (!checkpointed) {
    run.Fail("ingest_recover.checkpoint_ran", "no batch started past midpoint");
  }

  // Crash one server once the writes have drained, and restart it.
  const VirtualTime crash_at = QuiesceTime(cluster.get());
  int64_t recovery_host_ns = 0;
  {
    SimContext ctx(crash_at);
    SimContext::Scope scope(&ctx);
    ScopedSpan root(tracer, "bench", "op.crash_restart", ++run.op);
    {
      ScopedSpan span(tracer, "cluster", "MiniCluster::CrashServer", run.op);
      cluster->CrashServer(kVictim);
    }
    const int64_t h0 = HostNs();
    Status s;
    {
      ScopedSpan span(tracer, "cluster", "MiniCluster::RestartServer", run.op);
      s = cluster->RestartServer(kVictim, &in.recovery);
    }
    recovery_host_ns = HostNs() - h0;
    if (!s.ok()) run.Fail("ingest_recover.restart_ok", s.ToString());
    r.virt["recovery_s"] =
        Metric{static_cast<double>(ctx.now() - crash_at) / 1e6, "s", 0};
  }
  const int64_t phase_end_host = HostNs();

  FinishRun(&run, phase, window, phase_end_host);
  r.latency["write"] = batch_lat.values();
  r.host["host.recovery_s"] = static_cast<double>(recovery_host_ns) / 1e9;
  r.host["host.checkpoint_s"] = static_cast<double>(checkpoint_host_ns) / 1e9;
  FillUtilization(&r, cluster.get(), phase, QuiesceTime(cluster.get()));
  FillLayers(&r, PhaseMetrics(run), in);

  // Space: every DFS file's bytes over the live user bytes.
  double live_bytes = 0;
  for (uint64_t k = 0; k < kKeys; k++) {
    if (model[k].live) {
      live_bytes += static_cast<double>(
          Key(k).size() +
          MakeValue(Key(k), model[k].version, kValueBytes).size());
    }
  }
  double dfs_bytes = 0;
  auto files = cluster->dfs()->List("");
  if (files.ok()) {
    for (const std::string& path : *files) {
      auto size = cluster->dfs()->FileSize(path);
      if (size.ok()) dfs_bytes += static_cast<double>(*size);
    }
  }
  r.virt["space_amp"] = Metric{Ratio(dfs_bytes, live_bytes), "ratio", 0};

  // Durability: every key acked on the crashed server reads back its last
  // acked value, or NotFound after a delete.
  const std::vector<int> servers = TabletServers(cluster.get());
  uint64_t checked = 0;
  {
    SimContext::Scope no_clock(nullptr);
    for (uint64_t k = 0; k < kKeys; k++) {
      const int tablet = static_cast<int>(k * kTablets / kKeys);
      if (model[k].unknown || servers[tablet] != kVictim) continue;
      checked++;
      auto got = clients[0]->Get(kTable, 0, Key(k),
                                 logbase::client::ReadOptions{});
      if (model[k].live) {
        if (!got.ok() || got->value() != MakeValue(Key(k), model[k].version,
                                                   kValueBytes)) {
          run.Fail("ingest_recover.durability",
                   Key(k) + " lost its acked version " +
                       std::to_string(model[k].version));
        }
      } else if (!got.status().IsNotFound()) {
        run.Fail("ingest_recover.durability",
                 Key(k) + " was deleted but reads " + got.status().ToString());
      }
    }
  }
  if (checked == 0) run.Fail("ingest_recover.durability", "no keys checked");
  r.props["durability.keys_checked"] = static_cast<double>(checked);
  r.props["data_over_read_buffer"] =
      static_cast<double>(kKeys * (Key(0).size() + kValueBytes)) /
      static_cast<double>(kNodes * kReadBufferBytes);
  return r;
}

}  // namespace ingest_recover

// ---------------------------------------------------------------------------
// htap_transfer: 12 clients run MVOCC transfers inside one branch, 4 run
// pushed-down queries over one branch (SUM, and a selective filter +
// projection), half of them replica-served. Some branches straddle tablet
// boundaries, so some transfers commit across two servers.
//
// A replica-served query fetches every row from the log, one disk seek per
// row. One replica server (on node 1) holds every tablet's replica and reads
// only its own disk (see Boot), query clients pause kQueryThinkUs between
// queries, and branches are 32 accounts, so those seeks neither saturate the
// replica's disk nor stall the transfers' log appends.
// ---------------------------------------------------------------------------

namespace htap_transfer {

constexpr char kTable[] = "bank";
constexpr int kTxnClients = 12;
constexpr int kQueryClients = 4;
constexpr uint64_t kBranchSize = 32;
constexpr uint64_t kBranches = 64;
constexpr uint64_t kAccounts = kBranchSize * kBranches;
// Tablet t >= 1 starts at account kFirstSplit + (t - 1) * kTabletSpan, 12
// accounts into a branch: the 7 branches that hold a boundary straddle two
// tablets (on two servers).
constexpr uint64_t kFirstSplit = 108;
constexpr uint64_t kTabletSpan = 256;
constexpr size_t kPadBytes = 64;
constexpr int kReplicas = 1;
constexpr VirtualTime kTickUs = 5000;
constexpr VirtualTime kQueryThinkUs = 100'000;
constexpr uint64_t kWarmupOps = 400;
constexpr VirtualTime kMeasuredUs = 300'000;
constexpr uint64_t kMaxMeasuredOps = 20000;
constexpr int kMaxAttempts = 16;
constexpr int64_t kFilterMin = 1400;
constexpr size_t kReadBufferBytes = 1 << 20;
constexpr int kCheckEvery = 4;  // verify every 4th filter query per client

std::string Key(uint64_t i) { return NumberedKey("acct", i); }

int TabletOf(uint64_t account) {
  if (account < kFirstSplit) return 0;
  return std::min<int>(kTablets - 1,
                       1 + static_cast<int>((account - kFirstSplit) /
                                            kTabletSpan));
}

std::string Account(int64_t balance, uint64_t branch) {
  return logbase::client::EncodeColumns(
      {{"bal", std::to_string(balance)},
       {"br", std::to_string(branch)},
       {"pad", std::string(kPadBytes, 'p')}});
}

bool Balance(const std::string& value, int64_t* out) {
  auto cols = logbase::client::DecodeColumns(Slice(value));
  if (!cols.ok()) return false;
  auto it = cols->find("bal");
  return it != cols->end() &&
         logbase::query::ParseInt64(Slice(it->second), out);
}

struct Commit {
  uint64_t ts;
  VirtualTime at;
};

struct TxnClient {
  std::optional<logbase::client::Txn> txn;
  int state = 0;
  int attempts = 0;
  uint64_t a = 0, b = 0;
  int64_t amount = 0;
  std::string va, vb;
  uint64_t op = 0;
  VirtualTime first_start = 0;
  int64_t host_ns = 0;
};

RepResult RunOnce(uint64_t seed, Tracer* tracer) {
  RepResult r;
  Run run(&r, tracer);
  const int64_t boot_host = HostNs();
  std::vector<std::string> splits;
  for (int t = 1; t < kTablets; t++) {
    splits.push_back(Key(kFirstSplit + (t - 1) * kTabletSpan));
  }
  auto cluster = Boot(kReadBufferBytes, kReplicas, kTable, {"bal", "br", "pad"},
                      splits, &run);
  const int clients_n = kTxnClients + kQueryClients;
  auto clients = MakeClients(cluster.get(), clients_n);

  Random init = ClientRng(seed, 3, -1);
  std::vector<int64_t> initial(kAccounts);
  std::vector<int64_t> branch_total(kBranches, 0);
  for (uint64_t a = 0; a < kAccounts; a++) {
    initial[a] = 500 + static_cast<int64_t>(init.Uniform(1001));
    branch_total[a / kBranchSize] += initial[a];
  }
  Load(cluster.get(), &clients, kTable, kAccounts,
       [&](uint64_t a) {
         return std::make_pair(Key(a), Account(initial[a], a / kBranchSize));
       },
       &run);

  // One read replica per tablet; seed them and let them catch up.
  std::vector<std::string> uids(kTablets);
  std::vector<int> replica_of(kTablets, -1);
  {
    std::vector<std::pair<std::string, std::string>> by_start;
    for (const auto& [uid, loc] : cluster->master()->AssignmentsSnapshot()) {
      by_start.emplace_back(loc.descriptor.start_key, uid);
    }
    std::sort(by_start.begin(), by_start.end());
    const int tablets = std::min<int>(kTablets, by_start.size());
    for (int t = 0; t < tablets; t++) {
      uids[t] = by_start[t].second;
      auto replica = cluster->master()->AddReplica(uids[t]);
      if (!replica.ok()) {
        run.Fail("boot", "AddReplica: " + replica.status().ToString());
      } else {
        replica_of[t] = *replica;
      }
    }
    SimContext seed_ctx(QuiesceTime(cluster.get()));
    SimContext::Scope scope(&seed_ctx);
    Status s = cluster->TickReplicas();
    if (!s.ok()) run.Fail("boot", "TickReplicas: " + s.ToString());
  }
  const std::vector<int> servers = TabletServers(cluster.get());
  for (auto& c : clients) c->InvalidateCache();

  std::vector<Random> rngs;
  for (int c = 0; c < clients_n; c++) rngs.push_back(ClientRng(seed, 4, c));
  std::vector<TxnClient> txns(kTxnClients);
  std::vector<uint64_t> queries_issued(kQueryClients, 0);
  std::vector<std::deque<Commit>> unapplied(kTablets);

  Samples txn_lat, scan_lat;
  LayerInputs in;
  bool measuring = false;
  uint64_t transfers = 0, cross_server = 0;
  uint64_t stale_queries = 0, replica_served = 0;
  Window* window = nullptr;  // the running phase's
  int active = 0;

  auto txn_step = [&](int c, SimContext& ctx) -> bool {
    TxnClient& t = txns[c];
    logbase::client::LogBaseClient* client = clients[c].get();
    if (t.state == 0 && t.attempts == 0) {
      if (!window->Start(ctx.now())) {
        active--;
        return false;
      }
      t.op = ++run.op;
      Random* rng = &rngs[c];
      const uint64_t branch = rng->Uniform(kBranches);
      t.a = branch * kBranchSize + rng->Uniform(kBranchSize);
      do {
        t.b = branch * kBranchSize + rng->Uniform(kBranchSize);
      } while (t.b == t.a);
      t.amount = 1 + static_cast<int64_t>(rng->Uniform(50));
      t.first_start = ctx.now();
      t.host_ns = 0;
      if (measuring) {
        transfers++;
        if (servers[TabletOf(t.a)] != servers[TabletOf(t.b)]) cross_server++;
      }
    }
    ScopedSpan root(tracer, "bench", "op.transfer", t.op);
    const int64_t h0 = HostNs();
    Status s;
    switch (t.state) {
      case 0: {
        ScopedSpan span(tracer, "client", "LogBaseClient::BeginTxn", t.op);
        t.txn.emplace(client->BeginTxn());
        t.state = 1;
        break;
      }
      case 1:
      case 2: {
        const uint64_t account = t.state == 1 ? t.a : t.b;
        auto got = [&] {
          ScopedSpan span(tracer, "client", "Txn::Read", t.op);
          return t.txn->Read(kTable, 0, Key(account));
        }();
        s = got.status();
        if (got.ok()) {
          (t.state == 1 ? t.va : t.vb) = *got;
          t.state++;
        }
        break;
      }
      default: {
        int64_t bal_a = 0, bal_b = 0;
        if (!Balance(t.va, &bal_a) || !Balance(t.vb, &bal_b)) {
          run.Fail("htap_transfer.account_decodes", Key(t.a) + "/" + Key(t.b));
        }
        const std::string new_a = Account(bal_a - t.amount, t.a / kBranchSize);
        const std::string new_b = Account(bal_b + t.amount, t.b / kBranchSize);
        s = t.txn->Write(kTable, 0, Key(t.a), new_a);
        if (s.ok()) s = t.txn->Write(kTable, 0, Key(t.b), new_b);
        if (s.ok()) {
          ScopedSpan span(tracer, "client", "Txn::Commit", t.op);
          s = t.txn->Commit();
        }
        if (s.ok()) {
          if (measuring) {
            in.user_write_bytes += static_cast<double>(
                Key(t.a).size() + new_a.size() + Key(t.b).size() +
                new_b.size());
          }
          const Commit commit{t.txn->raw()->commit_ts(), ctx.now()};
          unapplied[TabletOf(t.a)].push_back(commit);
          if (TabletOf(t.b) != TabletOf(t.a)) {
            unapplied[TabletOf(t.b)].push_back(commit);
          }
        }
        t.state = 4;
        break;
      }
    }
    t.host_ns += HostNs() - h0;
    if (measuring) run.Call(s);
    if (t.state == 4 && s.ok()) {
      window->done.push_back(ctx.now());
      if (measuring) {
        txn_lat.Add(static_cast<double>(ctx.now() - t.first_start));
        run.host_ops.Record("txn", t.host_ns);
      }
      t.txn.reset();
      t.state = 0;
      t.attempts = 0;
    } else if (!s.ok()) {
      // MVOCC abort (or a failed read): retry from a fresh snapshot.
      if (!s.IsAborted()) {
        run.Fail("htap_transfer.txn_call_ok", s.ToString());
      }
      t.txn.reset();
      t.state = 0;
      if (++t.attempts >= kMaxAttempts) t.attempts = 0;  // give up
    }
    return true;
  };

  auto query_step = [&](int q, SimContext& ctx) -> bool {
    if (!window->Start(ctx.now())) {
      active--;
      return false;
    }
    const uint64_t id = ++run.op;
    const int c = kTxnClients + q;
    const uint64_t n = queries_issued[q]++;
    const bool sum = (n + q) % 2 == 0;
    const bool stale = ((n + q) / 2) % 2 == 0;
    const uint64_t branch = rngs[c].Uniform(kBranches);
    logbase::query::QueryPlan plan;
    plan.start_key = Key(branch * kBranchSize);
    plan.end_key = Key((branch + 1) * kBranchSize);
    if (sum) {
      plan.aggregation.kind = logbase::query::Aggregation::Kind::kSum;
      plan.aggregation.column = "bal";
    } else {
      plan.predicate = logbase::query::Predicate::Cmp(
          logbase::query::Predicate::Op::kGe, "bal",
          logbase::query::Value::Int64(kFilterMin));
      plan.projection.columns = {"bal"};
    }
    logbase::client::QueryOptions options;
    options.read.allow_stale = stale;

    ScopedSpan root(tracer, "bench", sum ? "op.query_sum" : "op.query_filter",
                    id);
    const VirtualTime start = ctx.now();
    const int64_t h0 = HostNs();
    auto result = [&] {
      ScopedSpan span(tracer, "client", "LogBaseClient::Query", id);
      return clients[c]->Query(kTable, 0, plan, options);
    }();
    if (measuring) {
      run.Call(result.status());
      run.host_ops.Record("scan", HostNs() - h0);
    }
    if (!result.ok()) {
      run.Fail("htap_transfer.query_ok", result.status().ToString());
      ctx.Advance(kQueryThinkUs);
      return true;
    }
    const char* served_by =
        result->tablets_from_replica > 0 ? "replica" : "primary";
    if (sum) {
      int64_t total = 0;
      for (const auto& [group, bucket] : result->agg.groups) {
        total += bucket.sum;
      }
      if (total != branch_total[branch]) {
        run.Fail("htap_transfer.sum_conserved",
                 std::string(served_by) + " SUM over branch " +
                     std::to_string(branch) + " = " + std::to_string(total) +
                     ", expected " + std::to_string(branch_total[branch]));
      }
    } else if ((n / 2) % kCheckEvery == 0) {
      // The pushed-down filter must match a client-side filter over a Scan
      // of the same range through the same routing.
      std::vector<std::pair<std::string, std::string>> pushed, expected;
      for (const auto& batch : result->batches) {
        const auto* col = batch.Find("bal");
        for (size_t i = 0; i < batch.NumRows(); i++) {
          pushed.emplace_back(batch.keys[i],
                              col != nullptr ? col->cells[i] : "");
        }
      }
      Unmeasured(&run, [&] {
        logbase::client::ReadOptions read;
        read.allow_stale = stale;
        auto rows = clients[c]->Scan(kTable, 0, plan.start_key, plan.end_key,
                                     read);
        if (!rows.ok()) {
          run.Fail("htap_transfer.query_matches_scan",
                   "Scan: " + rows.status().ToString());
          return;
        }
        for (const auto& row : *rows) {
          int64_t bal = 0;
          if (Balance(row.value, &bal) && bal >= kFilterMin) {
            expected.emplace_back(row.key, std::to_string(bal));
          }
        }
      });
      if (pushed != expected) {
        run.Fail("htap_transfer.query_matches_scan",
                 std::string(served_by) + " filter over branch " +
                     std::to_string(branch) + " returned " +
                     std::to_string(pushed.size()) + " rows, scan " +
                     std::to_string(expected.size()));
      }
    }
    window->done.push_back(ctx.now());
    if (measuring) {
      scan_lat.Add(static_cast<double>(ctx.now() - start));
      in.queries++;
      in.rows_scanned += result->rows_scanned;
      in.rows_returned += result->rows_returned;
      in.bytes_shipped += result->bytes_shipped;
      if (stale) {
        stale_queries++;
        in.stale_slices += result->tablets_queried;
        in.stale_slices_from_replica += result->tablets_from_replica;
        if (result->tablets_from_replica == result->tablets_queried) {
          replica_served++;
        }
      }
    }
    ctx.Advance(kQueryThinkUs);
    return true;
  };

  // Every replica tails the log on one fixed virtual cadence: all of them
  // catch up in the same step, so replica-served queries over two tablets
  // see the same set of transfers. Before each round the ticker samples
  // each tablet's watermark lag: how long ago the oldest commit its replica
  // has not applied yet completed.
  auto ticker = [&]() {
    auto next = std::make_shared<VirtualTime>(-1);
    return [&, next](SimContext& ctx) -> bool {
      if (active == 0) return false;
      if (*next < 0) *next = ctx.now();
      for (int t = 0; t < kTablets; t++) {
        if (replica_of[t] < 0) continue;
        auto watermark = cluster->replica(replica_of[t])->Watermark(uids[t]);
        if (!watermark.ok()) continue;
        std::deque<Commit>& q = unapplied[t];
        while (!q.empty() && q.front().ts <= *watermark) q.pop_front();
        VirtualTime oldest = ctx.now();
        for (const Commit& commit : q) oldest = std::min(oldest, commit.at);
        if (measuring) {
          in.lag_us_sum += static_cast<double>(ctx.now() - oldest);
          in.lag_samples++;
        }
      }
      const VirtualTime start = ctx.now();
      Status s;
      {
        ScopedSpan span(tracer, "cluster", "MiniCluster::TickReplicas", run.op);
        s = cluster->TickReplicas();
      }
      if (!s.ok()) run.Fail("htap_transfer.replica_tick_ok", s.ToString());
      if (measuring) {
        in.tick_us_sum += static_cast<double>(ctx.now() - start);
        in.ticks++;
      }
      *next += kTickUs;
      ctx.AdvanceTo(*next);
      return true;
    };
  };

  auto run_phase = [&](Window* phase_window, VirtualTime start) {
    Scheduler sched;
    window = phase_window;
    active = clients_n;
    for (int c = 0; c < kTxnClients; c++) {
      sched.Add(start, [&, c](SimContext& ctx) { return txn_step(c, ctx); });
    }
    for (int q = 0; q < kQueryClients; q++) {
      sched.Add(start, [&, q](SimContext& ctx) { return query_step(q, ctx); });
    }
    sched.Add(start, ticker());
    sched.Run();
  };

  Window warmup(kForever, kWarmupOps);
  run_phase(&warmup, QuiesceTime(cluster.get()));

  Phase phase;
  phase.Begin(cluster.get(), &run, boot_host);
  measuring = true;
  Window measured(phase.t0 + kMeasuredUs, kMaxMeasuredOps);
  run_phase(&measured, phase.t0);
  const int64_t phase_end_host = HostNs();

  FinishRun(&run, phase, measured, phase_end_host);
  r.latency["txn"] = txn_lat.values();
  r.latency["scan"] = scan_lat.values();
  FillUtilization(&r, cluster.get(), phase, QuiesceTime(cluster.get()));
  FillLayers(&r, PhaseMetrics(run), in);

  r.props["data_over_read_buffer"] =
      static_cast<double>(kAccounts *
                          (Key(0).size() + Account(1000, 0).size())) /
      static_cast<double>(kNodes * kReadBufferBytes);
  r.props["transfers.cross_server_share"] =
      Ratio(static_cast<double>(cross_server), static_cast<double>(transfers));
  r.props["queries.replica_served_share"] =
      Ratio(static_cast<double>(replica_served),
            static_cast<double>(in.queries));
  r.props["queries.allow_stale_share"] =
      Ratio(static_cast<double>(stale_queries),
            static_cast<double>(in.queries));
  return r;
}

}  // namespace htap_transfer

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "point_read", "ingest_recover", "htap_transfer"};
  return names;
}

std::string HeadlineLatency(const std::string& workload) {
  if (workload == "point_read") return "get";
  if (workload == "ingest_recover") return "write";
  return "txn";
}

RepResult RunWorkload(const std::string& workload, uint64_t seed,
                      Tracer* tracer) {
  if (workload == "point_read") return point_read::RunOnce(seed, tracer);
  if (workload == "ingest_recover") {
    return ingest_recover::RunOnce(seed, tracer);
  }
  return htap_transfer::RunOnce(seed, tracer);
}

}  // namespace perfbench

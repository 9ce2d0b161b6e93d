// Write path — group commit, pipelined quorum appends.
//
// Mechanism under test: concurrent writers enqueue records into the tablet
// server's append queue; a group-commit dispatcher coalesces them into
// multi-record batches that share one log append + one replicated DFS sync.
// Replication acks at a quorum of log replicas (the straggler completes in
// the background), so one disk-stalled data node no longer sits on every
// commit's critical path.
//
// Phase 1: throughput of N concurrent writers with the batch window off
// (every record its own batch) vs on (batches coalesce to ~N records).
// Phase 2: p99 commit latency with one disk-stalled replica, quorum ack vs
// full ack.

#include <deque>

#include "bench/common.h"
#include "src/util/histogram.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

constexpr uint64_t kValueBytes = 1024;

struct WriteFixture {
  std::unique_ptr<dfs::Dfs> dfs;
  coord::CoordinationService coord;
  std::unique_ptr<tablet::TabletServer> server;
  std::string uid;

  explicit WriteFixture(sim::VirtualTime window_us) {
    dfs::DfsOptions dfs_options;
    dfs_options.num_nodes = 3;
    dfs = std::make_unique<dfs::Dfs>(dfs_options);
    tablet::TabletServerOptions options;
    options.server_id = 0;
    options.group_commit.window_us = window_us;
    server = std::make_unique<tablet::TabletServer>(options, dfs.get(),
                                                    &coord);
    if (!server->Start().ok()) std::abort();
    tablet::TabletDescriptor d;
    d.table_id = 1;
    d.table_name = "bench";
    uid = d.uid();
    if (!server->OpenTablet(d).ok()) std::abort();
  }
};

struct RunResult {
  double seconds = 0;      // virtual time for the whole run
  double p50_us = 0;       // per-op commit latency
  double p99_us = 0;
  double batch_avg = 0;    // records per flushed log batch
};

/// `writers` concurrent clients, each with one write outstanding: submit op
/// k, then complete op k-writers+1 (round robin). The append queue sees
/// `writers` submissions between leader flushes, so steady-state batches
/// coalesce to about `writers` records.
RunResult RunWriters(WriteFixture* f, int writers, uint64_t n,
                     log::AckMode ack) {
  ResetCosts(f->dfs.get());
  auto before = obs::MetricsRegistry::Global().Snapshot();
  workload::YcsbOptions wopts;
  wopts.record_count = n;
  wopts.value_bytes = kValueBytes;
  workload::YcsbWorkload workload(wopts);
  Random rnd(4242);

  Histogram latency;
  RunResult result;
  result.seconds = TimedRun([&] {
    sim::SimContext* ctx = sim::SimContext::Current();
    struct Inflight {
      tablet::MutationBatch pending;
      sim::VirtualTime submitted_at;
    };
    std::deque<Inflight> inflight;
    auto complete_front = [&] {
      Inflight f_op = std::move(inflight.front());
      inflight.pop_front();
      if (!f->server->Wait(&f_op.pending).ok() ||
          !f->server->Publish(f_op.pending).ok()) {
        std::abort();
      }
      latency.Add(static_cast<double>(ctx->now() - f_op.submitted_at));
    };
    for (uint64_t i = 0; i < n; i++) {
      auto pending = f->server->Submit(
          {{f->uid, workload.KeyAt(i), workload.MakeValue(&rnd)}}, ack);
      if (!pending.ok()) std::abort();
      inflight.push_back(Inflight{std::move(*pending), ctx->now()});
      if (inflight.size() >= static_cast<size_t>(writers)) complete_front();
    }
    while (!inflight.empty()) complete_front();
  });
  result.p50_us = latency.Percentile(50);
  result.p99_us = latency.Percentile(99);
  auto delta = obs::MetricsRegistry::Global().Snapshot().Delta(before);
  const obs::MetricPoint* batch = delta.Find("log.append.batch_size");
  result.batch_avg = batch != nullptr ? batch->avg : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Write path", "Group commit + pipelined quorum appends");
  BenchResult json("group_commit");
  const uint64_t n = Scaled(100000);
  json.Set("ops_per_run", static_cast<double>(n));

  // -- Phase 1: batching throughput --------------------------------------
  std::printf("-- phase 1: %llu x %lluB writes, batch window off vs on "
              "(quorum ack) --\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(kValueBytes));
  std::printf("%8s %12s %14s %14s %12s %10s\n", "writers", "window(us)",
              "throughput", "batch_avg", "p99(us)", "speedup");
  const int writer_counts[] = {1, 4, 8, 16};
  double speedup_at_8 = 0;
  for (int writers : writer_counts) {
    double base_ops_s = 0;
    for (sim::VirtualTime window : {sim::VirtualTime{0},
                                    sim::VirtualTime{200},
                                    sim::VirtualTime{1000}}) {
      WriteFixture fixture(window);
      RunResult r = RunWriters(&fixture, writers, n, log::AckMode::kQuorum);
      double ops_s = static_cast<double>(n) / r.seconds;
      if (window == 0) base_ops_s = ops_s;
      double speedup = ops_s / base_ops_s;
      if (writers == 8 && window == 200) speedup_at_8 = speedup;
      std::printf("%8d %12lld %12.0f/s %14.1f %12.1f %9.2fx\n", writers,
                  static_cast<long long>(window), ops_s, r.batch_avg,
                  r.p99_us, speedup);
      json.AddRow("batching",
                  std::to_string(writers) + "w/" + std::to_string(window) +
                      "us",
                  {{"writers", writers},
                   {"window_us", static_cast<double>(window)},
                   {"ops_per_s", ops_s},
                   {"batch_avg", r.batch_avg},
                   {"p99_us", r.p99_us}});
    }
  }
  json.Set("speedup_8_writers", speedup_at_8);

  // -- Phase 2: straggler replica, quorum vs full ack --------------------
  constexpr sim::VirtualTime kStallUs = 20000;
  std::printf("-- phase 2: one log replica disk-stalled %lldus, 8 writers, "
              "window 200us --\n",
              static_cast<long long>(kStallUs));
  std::printf("%8s %14s %12s %12s\n", "ack", "throughput", "p50(us)",
              "p99(us)");
  double p99[2] = {0, 0};
  int i = 0;
  for (log::AckMode ack : {log::AckMode::kAll, log::AckMode::kQuorum}) {
    WriteFixture fixture(/*window_us=*/200);
    fixture.dfs->data_node(2)->disk()->set_stall_us(kStallUs);
    RunResult r = RunWriters(&fixture, 8, n, ack);
    double ops_s = static_cast<double>(n) / r.seconds;
    const char* label = ack == log::AckMode::kAll ? "all" : "quorum";
    std::printf("%8s %12.0f/s %12.1f %12.1f\n", label, ops_s, r.p50_us,
                r.p99_us);
    json.AddRow("straggler", label,
                {{"ops_per_s", ops_s}, {"p50_us", r.p50_us},
                 {"p99_us", r.p99_us}});
    p99[i++] = r.p99_us;
  }
  json.Set("straggler_p99_all_us", p99[0]);
  json.Set("straggler_p99_quorum_us", p99[1]);
  json.Set("straggler_p99_win", p99[1] > 0 ? p99[0] / p99[1] : 0);

  PrintComponentBreakdown();
  PrintPaperClaim(
      "Group commit amortizes the per-append DFS sync across concurrent "
      "writers (throughput rises with the batch size), and quorum acks take "
      "a disk-stalled straggler replica off the commit path (p99 drops to "
      "the healthy replicas' latency; the straggler completes in the "
      "background).");
  json.WriteFile();
  return 0;
}

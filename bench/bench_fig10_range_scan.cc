// Figure 10 — Range scan latency (ms) for 20/40/80/160-tuple ranges:
// LogBase BEFORE compaction (pointers scattered over the log -> one seek per
// tuple), LogBase AFTER compaction (sorted segments -> clustered access) and
// HBase (sorted store files).
//
// Second phase — scan pushdown (src/query/): the same range-scan shape on a
// 4-node cluster, comparing the seed's client-side path (ship every row,
// decode + filter at the client) against server-side execution of the same
// plan (selective predicate, projection-only, count aggregation). Row
// shipping serializes on the client's RX NIC; pushdown ships only survivors
// and fans out across tablets, so both latency and wire bytes collapse.

#include <algorithm>

#include "bench/common.h"
#include "src/cluster/mini_cluster.h"
#include "src/query/column_batch.h"
#include "src/query/plan.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

/// Average latency (ms) of `queries` range scans of `count` tuples each.
template <typename ScanFn>
double AvgScanMs(ScanFn&& scan, const std::vector<std::string>& sorted_keys,
                 uint64_t count, int queries, uint64_t seed,
                 logbase::dfs::Dfs* dfs) {
  Random rnd(seed);
  logbase::sim::ScopedClock clock(logbase::bench::QuiesceTime(dfs));
  double total_us = 0;
  for (int q = 0; q < queries; q++) {
    size_t start = rnd.Uniform(sorted_keys.size() - count - 1);
    const std::string& start_key = sorted_keys[start];
    const std::string& end_key = sorted_keys[start + count];
    logbase::sim::VirtualTime begin = clock.now();
    scan(start_key, end_key, count);
    total_us += static_cast<double>(clock.now() - begin);
  }
  return total_us / 1000.0 / queries;
}

std::string RowKey(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06llu",
                static_cast<unsigned long long>(i));
  return buf;
}

struct PushdownRun {
  double avg_ms = 0;
  uint64_t bytes_shipped = 0;
  uint64_t rows_returned = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 10",
              "Range scan latency (ms): LogBase before/after compaction vs "
              "HBase; plus server-side scan pushdown");
  BenchResult json("scan_pushdown");
  const uint64_t load_n = Scaled(1000000);
  workload::YcsbOptions wopts;
  wopts.record_count = load_n;
  wopts.value_bytes = 1024;
  workload::YcsbWorkload workload(wopts);

  std::vector<std::string> sorted_keys;
  sorted_keys.reserve(load_n);
  for (uint64_t i = 0; i < load_n; i++) sorted_keys.push_back(workload.KeyAt(i));
  std::sort(sorted_keys.begin(), sorted_keys.end());
  sorted_keys.erase(std::unique(sorted_keys.begin(), sorted_keys.end()),
                    sorted_keys.end());

  MicroLogBase logbase_fixture;
  core::TabletServerEngine logbase_engine(logbase_fixture.server.get(),
                                          "LogBase");
  SequentialLoad(&logbase_engine, logbase_fixture.uid, workload, load_n,
                 logbase_fixture.dfs.get());

  MicroHBase hbase_fixture;
  core::HBaseEngine hbase_engine(hbase_fixture.server.get());
  SequentialLoad(&hbase_engine, hbase_fixture.uid, workload, load_n,
                 hbase_fixture.dfs.get());
  if (!hbase_fixture.server->FlushAll().ok()) return 1;

  auto logbase_scan = [&](const std::string& start, const std::string& end,
                          uint64_t count) {
    auto rows = logbase_engine.Scan(logbase_fixture.uid, start, end);
    if (!rows.ok() || rows->size() != count) std::abort();
  };
  auto hbase_scan = [&](const std::string& start, const std::string& end,
                        uint64_t count) {
    auto rows = hbase_engine.Scan(hbase_fixture.uid, start, end);
    if (!rows.ok() || rows->size() != count) std::abort();
  };

  const int kQueries = 20;
  const uint64_t kCounts[] = {20, 40, 80, 160};

  std::vector<double> before_ms, hbase_ms, after_ms;
  for (uint64_t count : kCounts) {
    before_ms.push_back(
        AvgScanMs(logbase_scan, sorted_keys, count, kQueries, count,
                  logbase_fixture.dfs.get()));
    hbase_ms.push_back(
        AvgScanMs(hbase_scan, sorted_keys, count, kQueries, count,
                  hbase_fixture.dfs.get()));
  }
  // Compaction sorts + clusters the log (§3.6.5).
  if (!logbase_fixture.server->CompactLog().ok()) return 1;
  for (uint64_t count : kCounts) {
    after_ms.push_back(
        AvgScanMs(logbase_scan, sorted_keys, count, kQueries, count,
                  logbase_fixture.dfs.get()));
  }

  std::printf("%8s %22s %21s %10s\n", "tuples", "LogBase-before(ms)",
              "LogBase-after(ms)", "HBase(ms)");
  for (size_t i = 0; i < std::size(kCounts); i++) {
    std::printf("%8llu %22.1f %21.1f %10.1f\n",
                static_cast<unsigned long long>(kCounts[i]), before_ms[i],
                after_ms[i], hbase_ms[i]);
    json.AddRow("fig10", std::to_string(kCounts[i]) + "_tuples",
                {{"logbase_before_ms", before_ms[i]},
                 {"logbase_after_ms", after_ms[i]},
                 {"hbase_ms", hbase_ms[i]}});
  }

  // -------------------------------------------------------------------------
  // Scan pushdown: 4-node cluster, one tablet per server, ~1KB column-encoded
  // rows. Every mode scans the full table; only what crosses the wire
  // differs. The seed path is reproduced faithfully: ship raw rows, then
  // decode (charged per record) and filter at the client.
  // -------------------------------------------------------------------------
  std::printf("\nscan pushdown (4 nodes, %llu rows x ~1KB, 10%% selective "
              "predicate)\n",
              static_cast<unsigned long long>(Scaled(20000)));

  cluster::MiniClusterOptions copts;
  copts.num_nodes = 4;
  // The read buffer (§3.6.1) keeps hot values off the log so repeat scans
  // measure the execution paths, not cold DFS preads common to both.
  copts.server_template.read_buffer_bytes = 64ull << 20;
  cluster::MiniCluster cluster(copts);
  if (!cluster.Start().ok()) return 1;
  const uint64_t kRows = Scaled(20000);
  if (!cluster.master()
           ->CreateTable("scan", {"f0", "f1", "f2"}, {{"f0", "f1", "f2"}},
                         {RowKey(kRows / 4), RowKey(kRows / 2),
                          RowKey(3 * kRows / 4)})
           .ok()) {
    return 1;
  }
  auto qclient = cluster.NewClient(0);
  const char* colors[] = {"red", "green", "blue", "amber"};
  Random rnd(10);
  {
    sim::ScopedClock load_clock(QuiesceTime(cluster.dfs(), cluster.network()));
    for (uint64_t i = 0; i < kRows; i++) {
      std::map<std::string, std::string> columns;
      columns["f0"] = std::to_string(i);
      columns["f1"] = colors[rnd.Uniform(4)];
      columns["f2"] = std::string(960, static_cast<char>('a' + i % 26));
      if (!qclient->Put("scan", 0, RowKey(i), query::EncodeColumnMap(columns),
                        {})
               .ok()) {
        return 1;
      }
    }
  }

  const int64_t kThreshold = static_cast<int64_t>(kRows / 10);  // 10% match
  query::QueryPlan select_plan;
  select_plan.predicate = query::Predicate::Cmp(
      query::Predicate::Op::kLt, "f0", query::Value::Int64(kThreshold));
  query::QueryPlan project_plan;
  project_plan.projection.columns = {"f0"};
  query::QueryPlan count_plan;
  count_plan.aggregation.kind = query::Aggregation::Kind::kCount;
  const query::QueryPlan ship_all;  // the seed Scan: every raw row

  const int kPushdownQueries = 5;
  auto run = [&](const query::QueryPlan& plan, bool client_filter) {
    PushdownRun out;
    sim::ScopedClock clock(QuiesceTime(cluster.dfs(), cluster.network()));
    double total_us = 0;
    for (int q = 0; q < kPushdownQueries; q++) {
      sim::VirtualTime begin = clock.now();
      auto result = qclient->Query("scan", 0, plan, {});
      if (!result.ok()) std::abort();
      out.bytes_shipped = result->bytes_shipped;
      out.rows_returned = result->rows_returned;
      if (client_filter) {
        // The seed path's client half: decode every shipped row and apply
        // the predicate here, paying the codec cost pushdown moves
        // server-side (where it is charged identically per record).
        auto rows = tablet::RowsFromBatches(result->batches);
        sim::ChargeCpu(static_cast<sim::VirtualTime>(rows.size()) *
                       sim::costs::kRecordCodecUs);
        uint64_t matched = 0;
        for (const tablet::ReadRow& row : rows) {
          std::map<std::string, std::string> columns;
          query::DecodeColumnMap(Slice(row.value), &columns);
          if (select_plan.predicate.Matches(columns)) matched++;
        }
        out.rows_returned = matched;
      }
      total_us += static_cast<double>(clock.now() - begin);
    }
    out.avg_ms = total_us / 1000.0 / kPushdownQueries;
    return out;
  };

  run(ship_all, false);  // warm-up: prime tablet read buffers on every path

  PushdownRun ship = run(ship_all, true);
  PushdownRun pushed = run(select_plan, false);
  PushdownRun projected = run(project_plan, false);
  PushdownRun counted = run(count_plan, false);
  if (pushed.rows_returned != ship.rows_returned) std::abort();

  const double speedup = ship.avg_ms / pushed.avg_ms;
  const double reduction = static_cast<double>(ship.bytes_shipped) /
                           static_cast<double>(pushed.bytes_shipped);
  struct {
    const char* label;
    const PushdownRun* r;
  } modes[] = {{"row-ship+filter", &ship},
               {"pushdown filter", &pushed},
               {"projection f0", &projected},
               {"count aggregate", &counted}};
  std::printf("%18s %10s %14s %10s %10s\n", "mode", "avg(ms)", "bytes", "rows",
              "vs ship");
  for (const auto& mode : modes) {
    std::printf("%18s %10.1f %14llu %10llu %9.1fx\n", mode.label,
                mode.r->avg_ms,
                static_cast<unsigned long long>(mode.r->bytes_shipped),
                static_cast<unsigned long long>(mode.r->rows_returned),
                ship.avg_ms / mode.r->avg_ms);
    json.AddRow("pushdown", mode.label,
                {{"avg_ms", mode.r->avg_ms},
                 {"bytes_shipped", static_cast<double>(mode.r->bytes_shipped)},
                 {"rows_returned", static_cast<double>(mode.r->rows_returned)},
                 {"speedup_vs_ship", ship.avg_ms / mode.r->avg_ms}});
  }
  std::printf("selective pushdown: %.1fx faster, %.1fx fewer wire bytes "
              "(targets: >=3x, >=5x)\n",
              speedup, reduction);
  json.Set("pushdown_speedup", speedup);
  json.Set("pushdown_bytes_reduction", reduction);

  PrintComponentBreakdown();
  PrintPaperClaim(
      "before compaction LogBase pays one random access per tuple and loses "
      "badly; after compaction the log is clustered by key and LogBase "
      "answers range scans even faster than HBase thanks to its dense "
      "in-memory index (Fig. 10). Pushing scan execution to the tablet "
      "servers removes the row-shipping bottleneck on top of that: only "
      "predicate survivors (or aggregate partials) cross the network.");
  json.WriteFile();
  return 0;
}

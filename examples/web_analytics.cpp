// Web analytics: the paper's other motivating workload — logging user
// activity (visit clicks / ad clicks) at high volume. Demonstrates
// workload-driven vertical partitioning (the column groups are *chosen* by
// the cost model from a query trace), range scans for per-user activity
// reports, and log compaction turning scattered log entries into clustered
// sorted segments.

#include <cstdio>

#include "src/cluster/mini_cluster.h"
#include "src/partition/vertical_partitioner.h"
#include "src/util/random.h"

using namespace logbase;

int main() {
  // --- Choose column groups from the query trace (§3.2) -------------------
  // The events table stores: url, referrer (dashboards read them together),
  // and a heavy raw user-agent blob only batch jobs touch.
  std::vector<std::string> columns{"url", "referrer", "user_agent"};
  std::map<std::string, double> widths{
      {"url", 80}, {"referrer", 80}, {"user_agent", 600}};
  std::vector<partition::QueryTrace> trace{
      {{"url", "referrer"}, 100.0},  // hot dashboard query
      {{"user_agent"}, 2.0},         // rare batch analysis
  };
  auto grouping =
      partition::VerticalPartitioner::Partition(columns, widths, trace);
  std::printf("cost-based vertical partitioning chose %zu groups:\n",
              grouping.size());
  for (const auto& group : grouping) {
    std::printf("  group:");
    for (const auto& column : group) std::printf(" %s", column.c_str());
    std::printf("\n");
  }

  // --- Boot and create the table with those groups ------------------------
  cluster::MiniClusterOptions options;
  options.num_nodes = 3;
  options.server_template.read_buffer_bytes = 1 << 20;
  cluster::MiniCluster cluster(options);
  if (!cluster.Start().ok()) return 1;
  auto schema = cluster.master()->CreateTable(
      "events", columns, grouping, {"user0030/", "user0060/"});
  if (!schema.ok()) return 1;
  auto client = cluster.NewClient(0);

  // --- Click ingestion (write-once, read-often) ---------------------------
  Random rnd(7);
  const int kClicks = 3000;
  for (int i = 0; i < kClicks; i++) {
    int user = static_cast<int>(rnd.Uniform(100));
    char key[48];
    std::snprintf(key, sizeof(key), "user%04d/click%06d", user, i);
    Status s = client->PutRow(
        "events", key,
        {{"url", "/page/" + std::to_string(rnd.Uniform(50))},
         {"referrer", "https://search.example/?q=" + std::to_string(i)},
         {"user_agent", std::string(500, 'U')}});
    if (!s.ok()) {
      std::fprintf(stderr, "click %d: %s\n", i, s.ToString().c_str());
      return 1;
    }
  }
  std::printf("ingested %d click events\n", kClicks);

  // --- Per-user activity report: range scan on the hot column group -------
  // Thanks to key design (user id prefix), one user's events are a
  // contiguous key range — the entity-group idea from §3.2.
  auto report = client->Scan("events", 0, "user0042/", "user0042/\xff");
  std::printf("user0042 activity: %zu events (hot group only, no "
              "user_agent I/O)\n",
              report->size());

  // --- Compaction clusters the log for cheap future scans ------------------
  uint64_t before_segments = 0, after_segments = 0;
  for (int node = 0; node < cluster.num_nodes(); node++) {
    before_segments +=
        cluster.server(node)->ReaderFor(node)->ListSegments()->size();
  }
  tablet::CompactionStats total{};
  for (int node = 0; node < cluster.num_nodes(); node++) {
    tablet::CompactionStats stats;
    if (!cluster.server(node)->CompactLog({}, &stats).ok()) return 1;
    total.input_records += stats.input_records;
    total.output_records += stats.output_records;
  }
  for (int node = 0; node < cluster.num_nodes(); node++) {
    after_segments +=
        cluster.server(node)->ReaderFor(node)->ListSegments()->size();
  }
  std::printf("compaction: %llu -> %llu records, segments %llu -> %llu "
              "(sorted, clustered)\n",
              static_cast<unsigned long long>(total.input_records),
              static_cast<unsigned long long>(total.output_records),
              static_cast<unsigned long long>(before_segments),
              static_cast<unsigned long long>(after_segments));

  // Scans still correct post-compaction.
  auto recheck = client->Scan("events", 0, "user0042/", "user0042/\xff");
  std::printf("post-compaction re-scan: %zu events (%s)\n", recheck->size(),
              recheck->size() == report->size() ? "match" : "MISMATCH");
  if (recheck->size() != report->size()) return 1;
  std::printf("web_analytics done\n");
  return 0;
}

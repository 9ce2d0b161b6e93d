// Figure 17 — Checkpoint cost: time to write a checkpoint (persist the
// in-memory indexes into the server's DFS checkpoint file) and to reload it
// at restart, at data sizes of 250MB/500MB/1GB (scaled). Exits 1 unless the
// write is cheaper than the reload at every size.

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 17", "Checkpoint write vs reload cost (s)");
  BenchResult result("fig17_checkpoint");
  std::printf("%12s %12s %12s %12s %12s\n", "data(paper)", "data(run)",
              "write(s)", "reload(s)", "B/entry");
  bool write_cheaper = true;
  for (uint64_t paper_mb : {250ull, 500ull, 1024ull}) {
    uint64_t records = Scaled(paper_mb << 10);  // 1KB records
    workload::YcsbOptions wopts;
    wopts.record_count = records;
    wopts.value_bytes = 1024;
    workload::YcsbWorkload workload(wopts);

    MicroLogBase fixture;
    core::TabletServerEngine engine(fixture.server.get(), "LogBase");
    SequentialLoad(&engine, fixture.uid, workload, records,
                   fixture.dfs.get());

    double write_s = TimedRun(QuiesceTime(fixture.dfs.get()), [&] {
      if (!fixture.server->Checkpoint().ok()) std::abort();
    });
    // The file's bytes per index entry hold the section format's size.
    auto file = fixture.dfs->Open(
        fixture.server->checkpoint_dir() + "/CHECKPOINT", 0);
    if (!file.ok()) std::abort();
    const double bytes_per_entry =
        static_cast<double>((*file)->Size()) /
        static_cast<double>(fixture.server->FindTablet(fixture.uid)
                                ->index()
                                ->num_entries());

    fixture.server->Crash();
    tablet::RecoveryStats stats;
    double reload_s = TimedRun(QuiesceTime(fixture.dfs.get()), [&] {
      if (!fixture.server->Start(&stats).ok()) std::abort();
    });
    if (!stats.loaded_checkpoint) std::abort();
    if (write_s >= reload_s) write_cheaper = false;

    std::printf("%10lluMB %10lluMB %12.3f %12.3f %12.2f\n",
                static_cast<unsigned long long>(paper_mb),
                static_cast<unsigned long long>(records >> 10), write_s,
                reload_s, bytes_per_entry);
    result.AddRow("sizes", std::to_string(paper_mb) + "MB",
                  {{"records", static_cast<double>(records)},
                   {"write_s", write_s},
                   {"reload_s", reload_s},
                   {"checkpoint_bytes_per_entry", bytes_per_entry}});
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "writing a checkpoint is cheaper than reloading one (HDFS is "
      "optimized for write throughput; reload also rebuilds the in-memory "
      "indexes) — good, since checkpoints are written often and reloaded "
      "only on recovery (Fig. 17).");
  result.Set("write_cheaper", write_cheaper ? 1 : 0);
  result.WriteFile();
  std::printf("check: checkpoint write cheaper than reload at every size: "
              "%s\n",
              write_cheaper ? "PASS" : "FAIL");
  return write_cheaper ? 0 : 1;
}

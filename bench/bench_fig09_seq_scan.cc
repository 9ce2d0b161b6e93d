// Figure 9 — Sequential scan of the entire table, 250K/500K/1M tuples.
// LogBase scans its log segments (records carry table/column-group/LSN
// metadata, so the log is a little larger than HBase's data files) and
// checks each record's version against the index; HBase scans its store
// files. The paper reports LogBase slightly SLOWER here.

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 9", "Sequential scan time (s), LogBase vs HBase");
  std::printf("%12s %14s %12s %10s %8s\n", "tuples(paper)", "tuples(run)",
              "LogBase(s)", "HBase(s)", "LB/HB");
  for (uint64_t paper_n : {250000ull, 500000ull, 1000000ull}) {
    uint64_t n = Scaled(paper_n);
    workload::YcsbOptions wopts;
    wopts.record_count = n;
    wopts.value_bytes = 1024;
    workload::YcsbWorkload workload(wopts);

    MicroLogBase logbase_fixture;
    core::TabletServerEngine logbase_engine(logbase_fixture.server.get(),
                                            "LogBase");
    SequentialLoad(&logbase_engine, logbase_fixture.uid, workload, n,
                   logbase_fixture.dfs.get());
    double logbase_s = TimedRun(QuiesceTime(logbase_fixture.dfs.get()), [&] {
      auto live = logbase_fixture.server->FullScanCount(logbase_fixture.uid);
      // Hash collisions in key generation make a handful of duplicates.
      if (!live.ok() || *live < n - n / 100) std::abort();
    });

    MicroHBase hbase_fixture;
    core::HBaseEngine hbase_engine(hbase_fixture.server.get());
    SequentialLoad(&hbase_engine, hbase_fixture.uid, workload, n,
                   hbase_fixture.dfs.get());
    if (!hbase_fixture.server->FlushAll().ok()) return 1;
    double hbase_s = TimedRun(QuiesceTime(hbase_fixture.dfs.get()), [&] {
      auto rows = hbase_engine.Scan(hbase_fixture.uid, "", "");
      if (!rows.ok() || rows->size() < n - n / 100) std::abort();
    });

    std::printf("%12llu %14llu %12.2f %10.2f %8.2fx\n",
                static_cast<unsigned long long>(paper_n),
                static_cast<unsigned long long>(n), logbase_s, hbase_s,
                logbase_s / hbase_s);
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "LogBase is slightly slower on full scans: log entries carry extra "
      "log metadata so the log is larger than HBase's data files, and each "
      "scanned record's version is checked against the index (Fig. 9).");
  return 0;
}

// Figure 21 — Sequential scan, LogBase vs LRS: every scanned record's
// version is checked against the index, and LRS's LSM index probes are more
// expensive than B-link tree lookups.

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 21", "Sequential scan time (s), LogBase vs LRS");
  std::printf("%12s %14s %12s %10s %8s\n", "tuples(paper)", "tuples(run)",
              "LogBase(s)", "LRS(s)", "ratio");
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
      if (!live.ok() || *live < n - n / 100) std::abort();
    });

    MicroLogBase lrs_fixture(/*read_buffer_bytes=*/0,
                             index::IndexKind::kLsm);
    core::TabletServerEngine lrs_engine(lrs_fixture.server.get(), "LRS");
    SequentialLoad(&lrs_engine, lrs_fixture.uid, workload, n,
                   lrs_fixture.dfs.get());
    double lrs_s = TimedRun(QuiesceTime(lrs_fixture.dfs.get()), [&] {
      auto live = lrs_fixture.server->FullScanCount(lrs_fixture.uid);
      if (!live.ok() || *live < n - n / 100) std::abort();
    });

    std::printf("%12llu %14llu %12.2f %10.2f %8.2fx\n",
                static_cast<unsigned long long>(paper_n),
                static_cast<unsigned long long>(n), logbase_s, lrs_s,
                lrs_s / logbase_s);
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "LogBase scans faster than LRS: the per-record version check against "
      "the index costs a memory probe for the B-link tree but may touch "
      "disk for the LSM index (Fig. 21); compaction would cluster versions "
      "and shrink the gap.");
  return 0;
}

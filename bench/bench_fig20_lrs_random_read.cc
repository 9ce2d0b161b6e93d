// Figure 20 — Random access (no record cache), LogBase vs LRS: the LSM
// index may need disk probes (mitigated by bloom filters + its 8MB block
// cache) where the B-link tree answers from memory.

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 20", "Random read time (s) no cache, LogBase vs LRS");
  const uint64_t load_n = Scaled(1000000);
  workload::YcsbOptions wopts;
  wopts.record_count = load_n;
  wopts.value_bytes = 1024;
  workload::YcsbWorkload workload(wopts);

  MicroLogBase logbase_fixture(/*read_buffer_bytes=*/0);
  core::TabletServerEngine logbase_engine(logbase_fixture.server.get(),
                                          "LogBase");
  SequentialLoad(&logbase_engine, logbase_fixture.uid, workload, load_n,
                 logbase_fixture.dfs.get());

  MicroLogBase lrs_fixture(/*read_buffer_bytes=*/0, index::IndexKind::kLsm);
  core::TabletServerEngine lrs_engine(lrs_fixture.server.get(), "LRS");
  SequentialLoad(&lrs_engine, lrs_fixture.uid, workload, load_n,
                 lrs_fixture.dfs.get());

  auto run_reads = [&](core::KvEngine* engine, const std::string& uid,
                       uint64_t reads, uint64_t seed, dfs::Dfs* dfs) {
    Random rnd(seed);
    return TimedRun(QuiesceTime(dfs), [&] {
      for (uint64_t i = 0; i < reads; i++) {
        std::string key = workload.KeyAt(rnd.Uniform(load_n));
        if (!engine->Get(uid, Slice(key)).ok()) std::abort();
      }
    });
  };

  std::printf("%8s %12s %10s %8s\n", "reads", "LogBase(s)", "LRS(s)",
              "ratio");
  for (uint64_t reads : {500ull, 1000ull, 2000ull, 4000ull}) {
    double logbase_s = run_reads(&logbase_engine, logbase_fixture.uid, reads,
                                 reads, logbase_fixture.dfs.get());
    double lrs_s = run_reads(&lrs_engine, lrs_fixture.uid, reads, reads,
                             lrs_fixture.dfs.get());
    std::printf("%8llu %12.2f %10.2f %8.2fx\n",
                static_cast<unsigned long long>(reads), logbase_s, lrs_s,
                lrs_s / logbase_s);
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "LRS random access is only slightly slower: bloom filters and the "
      "LSM read buffer keep most index probes off the disk (Fig. 20) — "
      "scaling the index beyond memory costs little read performance.");
  return 0;
}

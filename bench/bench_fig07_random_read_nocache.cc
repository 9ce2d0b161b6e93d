// Figure 7 — Random access WITHOUT cache: time to read 0.5K/1K/2K/4K random
// tuples out of a loaded table, LogBase vs HBase, caches disabled.
//
// Mechanism under test: LogBase's dense in-memory index locates any record
// with ONE disk seek; HBase must probe its store files (block-index seek +
// 64KB block read per file) until the row is found — the long-tail read
// path of §3.5/§4.2.2.

#include <algorithm>

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 7",
              "Random read time (s) without cache, LogBase vs HBase");
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

  MicroHBase hbase_fixture(/*block_cache_bytes=*/0);
  core::HBaseEngine hbase_engine(hbase_fixture.server.get());
  SequentialLoad(&hbase_engine, hbase_fixture.uid, workload, load_n,
                 hbase_fixture.dfs.get());
  if (!hbase_fixture.server->FlushAll().ok()) return 1;

  auto run_reads = [&](core::KvEngine* engine, const std::string& uid,
                       uint64_t reads, uint64_t seed, dfs::Dfs* dfs) {
    Random rnd(seed);
    return TimedRun(QuiesceTime(dfs), [&] {
      for (uint64_t i = 0; i < reads; i++) {
        std::string key = workload.KeyAt(rnd.Uniform(load_n));
        auto value = engine->Get(uid, Slice(key));
        if (!value.ok()) std::abort();
      }
    });
  };

  std::printf("%8s %12s %10s %8s\n", "reads", "LogBase(s)", "HBase(s)",
              "ratio");
  for (uint64_t reads : {500ull, 1000ull, 2000ull, 4000ull}) {
    double logbase_s =
        run_reads(&logbase_engine, logbase_fixture.uid, reads, reads,
                  logbase_fixture.dfs.get());
    double hbase_s =
        run_reads(&hbase_engine, hbase_fixture.uid, reads, reads,
                  hbase_fixture.dfs.get());
    std::printf("%8llu %12.2f %10.2f %8.2fx\n",
                static_cast<unsigned long long>(reads), logbase_s, hbase_s,
                hbase_s / logbase_s);
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "LogBase is superior without cache: its dense in-memory index seeks "
      "directly to the record (one disk seek); HBase loads and scans a 64KB "
      "block per candidate store file (long tail requests, Fig. 7).");
  return 0;
}

// Figure 8 — Random access WITH cache: 300..2K zipfian reads with LogBase's
// read buffer and HBase's block cache enabled (the paper's 20%-of-heap
// setting). The gap narrows because cached blocks spare HBase the block
// fetch.

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 8",
              "Random read time (s) with cache, LogBase vs HBase");
  const uint64_t load_n = Scaled(1000000);
  workload::YcsbOptions wopts;
  wopts.record_count = load_n;
  wopts.value_bytes = 1024;
  workload::YcsbWorkload workload(wopts);

  const size_t kCacheBytes = 64ull << 20;  // ~20% of a 4GB-heap-equivalent,
                                           // scaled with the data
  MicroLogBase logbase_fixture(/*read_buffer_bytes=*/kCacheBytes);
  core::TabletServerEngine logbase_engine(logbase_fixture.server.get(),
                                          "LogBase");
  SequentialLoad(&logbase_engine, logbase_fixture.uid, workload, load_n,
                 logbase_fixture.dfs.get());

  MicroHBase hbase_fixture(/*block_cache_bytes=*/kCacheBytes);
  core::HBaseEngine hbase_engine(hbase_fixture.server.get());
  SequentialLoad(&hbase_engine, hbase_fixture.uid, workload, load_n,
                 hbase_fixture.dfs.get());
  if (!hbase_fixture.server->FlushAll().ok()) return 1;

  // Warm both caches like the paper warms before each experiment.
  workload::YcsbOptions read_opts = wopts;
  read_opts.update_proportion = 0.0;
  workload::YcsbWorkload reader(read_opts);
  Random warm_rnd(99);
  for (int i = 0; i < 2000; i++) {
    auto op = reader.NextOp(&warm_rnd);
    (void)logbase_engine.Get(logbase_fixture.uid, Slice(op.key));
    (void)hbase_engine.Get(hbase_fixture.uid, Slice(op.key));
  }

  auto run_reads = [&](core::KvEngine* engine, const std::string& uid,
                       uint64_t reads, uint64_t seed, dfs::Dfs* dfs) {
    workload::YcsbWorkload zipf(read_opts, seed);
    Random rnd(seed);
    return TimedRun(QuiesceTime(dfs), [&] {
      for (uint64_t i = 0; i < reads; i++) {
        auto op = zipf.NextOp(&rnd);
        auto value = engine->Get(uid, Slice(op.key));
        if (!value.ok()) std::abort();
      }
    });
  };

  std::printf("%8s %12s %10s %8s\n", "reads", "LogBase(s)", "HBase(s)",
              "ratio");
  for (uint64_t reads : {300ull, 600ull, 1000ull, 1500ull, 2000ull}) {
    double logbase_s =
        run_reads(&logbase_engine, logbase_fixture.uid, reads, reads,
                  logbase_fixture.dfs.get());
    double hbase_s =
        run_reads(&hbase_engine, hbase_fixture.uid, reads, reads,
                  hbase_fixture.dfs.get());
    std::printf("%8llu %12.3f %10.3f %8.2fx\n",
                static_cast<unsigned long long>(reads), logbase_s, hbase_s,
                hbase_s / logbase_s);
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "the performance gap reduces when the block cache is adopted: cached "
      "blocks spare HBase the seek+block read; LogBase still leads via the "
      "in-memory index (Fig. 8).");
  return 0;
}

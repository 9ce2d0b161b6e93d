// Figure 6 — Sequential write: time to insert 250K/500K/1M x 1KB tuples,
// LogBase vs HBase, single tablet server on a 3-node DFS.
//
// Mechanism under test: LogBase writes each record once (log append + memory
// index); HBase writes it twice (WAL append now, memtable flush to a store
// file later), so HBase pays roughly double the disk traffic. Writes go
// through the group-commit write path (single-writer sequential load keeps
// one record per batch; the LogBase-8w column adds 8 concurrent writers so
// batches coalesce and the per-append DFS sync amortizes).

#include <deque>

#include "bench/common.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

/// Loads `n` records with `writers` concurrent clients round-robining
/// through the async Submit / Wait + Publish halves; returns virtual
/// seconds.
double BatchedLoad(tablet::TabletServer* server, const std::string& uid,
                   const workload::YcsbWorkload& workload, uint64_t n,
                   dfs::Dfs* dfs, int writers) {
  ResetCosts(dfs);
  Random rnd(4242);
  return TimedRun([&] {
    std::deque<tablet::MutationBatch> inflight;
    auto complete_front = [&] {
      tablet::MutationBatch pending = std::move(inflight.front());
      inflight.pop_front();
      if (!server->Wait(&pending).ok() || !server->Publish(pending).ok()) {
        std::abort();
      }
    };
    for (uint64_t i = 0; i < n; i++) {
      auto pending = server->Submit(
          {{uid, workload.KeyAt(i), workload.MakeValue(&rnd)}});
      if (!pending.ok()) std::abort();
      inflight.push_back(std::move(*pending));
      if (inflight.size() >= static_cast<size_t>(writers)) complete_front();
    }
    while (!inflight.empty()) complete_front();
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 6", "Sequential write time (s), LogBase vs HBase");
  const uint64_t points[] = {250000, 500000, 1000000};

  std::printf("%12s %14s %12s %12s %10s %8s\n", "tuples(paper)",
              "tuples(run)", "LogBase(s)", "LogBase-8w(s)", "HBase(s)",
              "ratio");
  for (uint64_t paper_n : points) {
    uint64_t n = Scaled(paper_n);
    workload::YcsbOptions wopts;
    wopts.record_count = n;
    wopts.value_bytes = 1024;
    workload::YcsbWorkload workload(wopts);

    MicroLogBase logbase_fixture;
    core::TabletServerEngine logbase_engine(logbase_fixture.server.get(),
                                            "LogBase");
    double logbase_s =
        SequentialLoad(&logbase_engine, logbase_fixture.uid, workload, n,
                       logbase_fixture.dfs.get());

    MicroLogBase batched_fixture;
    double batched_s =
        BatchedLoad(batched_fixture.server.get(), batched_fixture.uid,
                    workload, n, batched_fixture.dfs.get(), /*writers=*/8);

    MicroHBase hbase_fixture;
    core::HBaseEngine hbase_engine(hbase_fixture.server.get());
    double hbase_s =
        SequentialLoad(&hbase_engine, hbase_fixture.uid, workload, n,
                       hbase_fixture.dfs.get());
    // HBase eventually persists the memtable too; include the trailing
    // flush so both systems have durably stored all data.
    hbase_s += TimedRun([&] {
      if (!hbase_fixture.server->FlushAll().ok()) std::abort();
    });

    std::printf("%12llu %14llu %12.2f %13.2f %10.2f %8.2fx\n",
                static_cast<unsigned long long>(paper_n),
                static_cast<unsigned long long>(n), logbase_s, batched_s,
                hbase_s, hbase_s / logbase_s);
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "LogBase outperforms HBase by ~50% on sequential writes (it writes "
      "data to the DFS once; HBase writes the WAL now and flushes memtables "
      "to data files later).");
  return 0;
}

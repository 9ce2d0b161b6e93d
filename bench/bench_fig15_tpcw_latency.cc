// Figure 15 — TPC-W transaction latency (ms) at 3/6/12/24 nodes for the
// browsing (5% update), shopping (20%) and ordering (50%) mixes.

#include "bench/tpcw_common.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 15", "TPC-W transaction latency (ms) per mix");
  BenchResult result("fig15_tpcw_latency");
  const uint64_t kTxnsPerClient = 1000;
  std::printf("%6s %12s %12s %12s\n", "nodes", "browsing", "shopping",
              "ordering");
  bool ordered = true;
  for (int nodes : {3, 6, 12, 24}) {
    double ms[3];
    int i = 0;
    for (auto mix : {workload::TpcwMix::kBrowsing,
                     workload::TpcwMix::kShopping,
                     workload::TpcwMix::kOrdering}) {
      ms[i++] = RunTpcw(nodes, mix, kTxnsPerClient).latency_ms;
    }
    if (!(ms[2] > ms[1] && ms[1] > ms[0])) ordered = false;
    std::printf("%6d %12.3f %12.3f %12.3f\n", nodes, ms[0], ms[1], ms[2]);
    result.AddRow("nodes", std::to_string(nodes),
                  {{"browsing_ms", ms[0]},
                   {"shopping_ms", ms[1]},
                   {"ordering_ms", ms[2]}});
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "under browsing and shopping mixes LogBase scales with nearly flat "
      "transaction latency — most transactions are read-only and commit "
      "without conflict checks under MVOCC; the ordering mix pays more for "
      "write locks + commit-record persistence (Fig. 15).");
  result.Set("mix_latency_ordered", ordered ? 1 : 0);
  result.WriteFile();
  std::printf(
      "check: ordering > shopping > browsing latency at every node count: "
      "%s\n",
      ordered ? "PASS" : "FAIL");
  return ordered ? 0 : 1;
}

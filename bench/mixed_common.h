// Shared experiment code for Figures 11-14 and 22: parallel loading and
// mixed YCSB runs against LogBase / HBase / LRS clusters of 3..24 nodes.

#ifndef LOGBASE_BENCH_MIXED_COMMON_H_
#define LOGBASE_BENCH_MIXED_COMMON_H_

#include "bench/common.h"

namespace logbase::bench {

/// Per-node record count for cluster experiments: the paper loads 1M x 1KB
/// per node; memory forces an extra 10x reduction on top of the global
/// scale (noted in every binary's header).
inline uint64_t ClusterRecordsPerNode() { return Scaled(1000000) / 10; }

enum class EngineKind { kLogBase, kHBase, kLrs };

inline const char* EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kLogBase:
      return "LogBase";
    case EngineKind::kHBase:
      return "HBase";
    case EngineKind::kLrs:
      return "LRS";
  }
  return "?";
}

struct MixedResult {
  workload::DriverResult load;
  workload::DriverResult run;
};

/// Builds a `kind` cluster of `nodes`, loads records_per_node each, then
/// runs `ops_per_client` YCSB ops per node-client at `update_proportion`
/// (skipped when ops_per_client == 0).
inline MixedResult RunMixedExperiment(EngineKind kind, int nodes,
                                      double update_proportion,
                                      uint64_t ops_per_client) {
  uint64_t records_per_node = ClusterRecordsPerNode();
  workload::YcsbOptions wopts;
  wopts.record_count = records_per_node * nodes;
  wopts.value_bytes = 1024;
  wopts.update_proportion = update_proportion;
  workload::YcsbWorkload workload(wopts);

  MixedResult result;
  auto execute = [&](workload::EngineCluster& cluster, dfs::Dfs* dfs,
                     sim::NetworkModel* network) {
    result.load = workload::ClosedLoopDriver::Load(
        cluster, QuiesceTime(dfs, network), workload, records_per_node,
        /*batch_size=*/50);
    if (ops_per_client > 0) {
      result.run = workload::ClosedLoopDriver::RunYcsb(
          cluster, QuiesceTime(dfs, network), &workload, ops_per_client);
    }
  };

  uint64_t data_per_node = records_per_node * wopts.value_bytes;
  if (kind == EngineKind::kHBase) {
    HBaseCluster fixture(nodes, 8ull << 20, data_per_node);
    execute(fixture.cluster, fixture.dfs.get(), fixture.network.get());
  } else {
    LogBaseCluster fixture(nodes,
                           kind == EngineKind::kLrs ? index::IndexKind::kLsm
                                                    : index::IndexKind::kBlink,
                           8ull << 20, data_per_node);
    execute(fixture.cluster, fixture.dfs.get(), fixture.network.get());
  }
  return result;
}

}  // namespace logbase::bench

#endif  // LOGBASE_BENCH_MIXED_COMMON_H_

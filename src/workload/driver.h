// The closed-loop benchmark driver (paper §4.1: one benchmark client per
// node, each submitting a constant workload — a completed operation is
// immediately followed by a new one). Clients are simulated actors stepped
// by sim::Scheduler from a caller-given start time (a bench passes its
// fixture's quiesce time); the reported time/throughput/latency figures are
// virtual and measured from that start.

#ifndef LOGBASE_WORKLOAD_DRIVER_H_
#define LOGBASE_WORKLOAD_DRIVER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/kv_engine.h"
#include "src/sim/network_model.h"
#include "src/sim/sim_context.h"
#include "src/util/histogram.h"
#include "src/workload/ycsb.h"

namespace logbase::workload {

struct DriverResult {
  double virtual_seconds = 0;  // makespan across clients
  uint64_t total_ops = 0;
  double throughput_ops_per_sec = 0;
  Histogram read_latency_us;
  Histogram update_latency_us;
  uint64_t failed_ops = 0;
};

/// A cluster under test: one engine per node plus the routing rule mapping a
/// key to (node, tablet uid).
struct EngineCluster {
  std::vector<core::KvEngine*> engines;
  /// Routes a key to the node hosting it.
  std::function<int(const Slice& key)> route;
  /// Tablet uid on that node.
  std::function<std::string(int node)> tablet_uid;
  /// Network for client->server RPC charging (may be null).
  sim::NetworkModel* network = nullptr;
};

/// Hash routing over all nodes (the drivers' default partitioning).
std::function<int(const Slice&)> HashRouter(int num_nodes);

class ClosedLoopDriver {
 public:
  /// Loads `records_per_node` records per node through PutBatch in
  /// `batch_size` chunks, one loader per node starting at `start`; returns
  /// the load makespan stats.
  static DriverResult Load(const EngineCluster& cluster,
                           sim::VirtualTime start,
                           const YcsbWorkload& workload,
                           uint64_t records_per_node, size_t batch_size);

  /// Runs `ops_per_client` YCSB operations per node-client, every client
  /// starting at `start`.
  static DriverResult RunYcsb(const EngineCluster& cluster,
                              sim::VirtualTime start,
                              YcsbWorkload* workload,
                              uint64_t ops_per_client, uint64_t seed = 7);
};

}  // namespace logbase::workload

#endif  // LOGBASE_WORKLOAD_DRIVER_H_

// The in-process cluster harness: the paper's testbed in one process. Each
// "machine" hosts a data node and a tablet server (plus, on node 0, the
// coordination ensemble and the master), sharing a virtual-time network and
// per-node disks. Benchmarks instantiate this at 3/6/12/24 nodes.

#ifndef LOGBASE_CLUSTER_MINI_CLUSTER_H_
#define LOGBASE_CLUSTER_MINI_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/balance/balancer.h"
#include "src/client/client.h"
#include "src/coord/coordination_service.h"
#include "src/dfs/dfs.h"
#include "src/master/master.h"
#include "src/obs/metrics.h"
#include "src/replica/replica_server.h"
#include "src/sim/network_model.h"
#include "src/tablet/tablet_server.h"

namespace logbase::cluster {

struct MiniClusterOptions {
  int num_nodes = 3;
  /// Master instances (instance i homed on node i). One active at a time;
  /// standbys take over through the coordination-service election.
  int num_masters = 1;
  dfs::DfsOptions dfs;  // num_nodes is overridden by the cluster's
  sim::NetworkParams network;
  tablet::TabletServerOptions server_template;
  /// Policy knobs for the cluster's balancer. The loop only runs when the
  /// driver (test, benchmark, nemesis) calls balancer()->Tick().
  balance::BalancerOptions balancer;
  /// Read-replica servers (compute-only; replica i homes on node
  /// (i + 1) % num_nodes so replicas spread off the coordination host).
  /// Tablets are attached via active_master()->AddReplica(uid); tailing
  /// advances when the driver calls TickReplicas().
  int num_replicas = 0;
  /// Template for replica servers (read buffer size, admission control,
  /// src/qos/); replica_id and node are overridden per instance.
  replica::ReplicaServerOptions replica_template;
};

class MiniCluster {
 public:
  explicit MiniCluster(MiniClusterOptions options);
  ~MiniCluster();

  MiniCluster(const MiniCluster&) = delete;
  MiniCluster& operator=(const MiniCluster&) = delete;

  /// Boots data nodes, coordination, master and tablet servers.
  Status Start();

  int num_nodes() const { return options_.num_nodes; }
  int num_masters() const { return static_cast<int>(masters_.size()); }
  coord::CoordinationService* coord() { return coord_.get(); }
  dfs::Dfs* dfs() { return dfs_.get(); }
  /// The first master instance (the only one in single-master clusters).
  master::Master* master() { return masters_[0].get(); }
  master::Master* masters(int i) { return masters_[i].get(); }
  /// The currently elected master, promoting the election winner on demand;
  /// nullptr when no running instance holds the leadership.
  master::Master* active_master();
  sim::NetworkModel* network() { return network_.get(); }
  tablet::TabletServer* server(int node) { return servers_[node].get(); }
  /// The cluster's elastic load balancer, already bound to active_master().
  balance::Balancer* balancer() { return balancer_.get(); }
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  replica::ReplicaServer* replica(int i) { return replicas_[i].get(); }

  /// Advances every running replica's log tailers (best-effort; a down
  /// replica is skipped). Drivers call this at their own cadence.
  Status TickReplicas();
  /// Crashes replica `i` (all its soft state — indexes, tail cursors — is
  /// lost).
  void CrashReplica(int i);
  /// Restarts replica `i` and re-seeds its attached tablets through the
  /// active master.
  Status RestartReplica(int i);

  /// A client homed on `node` (benchmark clients run one per node).
  std::unique_ptr<client::LogBaseClient> NewClient(int node);

  /// Crashes the tablet server process on a node (data node stays up; the
  /// log survives in the DFS). Restart with RestartServer.
  void CrashServer(int node);
  Status RestartServer(int node, tablet::RecoveryStats* stats = nullptr);

  /// Kills the whole machine: tablet server + data node. The DFS
  /// re-replicates the lost blocks.
  Status KillNode(int node);

  /// Crashes master instance `i` (drops its coordination session without
  /// resigning, as a real process death would).
  void CrashMaster(int i);
  Status RestartMaster(int i);

  /// A structured snapshot of every metric the cluster's components have
  /// reported (counters, gauges, virtual-time histograms). Pair with
  /// `Delta()` on the snapshot to scope to a phase, or `ResetMetrics()` to
  /// zero between phases.
  obs::MetricsSnapshot DumpMetrics() const;
  void ResetMetrics();

 private:
  MiniClusterOptions options_;
  std::unique_ptr<sim::NetworkModel> network_;
  std::unique_ptr<dfs::Dfs> dfs_;
  std::unique_ptr<coord::CoordinationService> coord_;
  std::vector<std::unique_ptr<tablet::TabletServer>> servers_;
  std::vector<std::unique_ptr<master::Master>> masters_;
  std::vector<std::unique_ptr<replica::ReplicaServer>> replicas_;
  std::unique_ptr<balance::Balancer> balancer_;
};

}  // namespace logbase::cluster

#endif  // LOGBASE_CLUSTER_MINI_CLUSTER_H_

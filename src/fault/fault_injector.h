// Deterministic fault injection on the virtual clock. A FaultPlan is a
// seeded, sorted schedule of fault events (crashes, kills, restarts, disk
// faults, partitions, RPC drop/delay, master failover); a FaultInjector
// owns the plan, fires each event when the driving thread's virtual time
// passes it, and doubles as the NetworkModel's fault policy so partitions
// and slow links take effect inside every simulated transfer. The same
// (plan, seed) always yields the same schedule and the same delivered-event
// log — chaos tests replay bit-identically.

#ifndef LOGBASE_FAULT_FAULT_INJECTOR_H_
#define LOGBASE_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/sim/network_model.h"
#include "src/sim/sim_context.h"
#include "src/util/ordered_mutex.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logbase::cluster {
class MiniCluster;
}  // namespace logbase::cluster

namespace logbase::fault {

enum class FaultKind {
  kCrashServer,      // tablet-server process crash on `node`
  kRestartServer,    // restart the tablet-server process on `node`
  kKillNode,         // whole machine dies: server + data node; permanent
  kRestartDataNode,  // bring a replacement data node up on `node`
  kDiskStall,        // +`param` us latency on every disk access on `node`
  kDiskClear,        // clear the stall on `node`
  kDiskErrors,       // next `param` block I/Os on `node` fail with IOError
  kMetaErrors,       // next `param` NameNode block allocations fail
  kPartitionNodes,   // cut the link `node` <-> `other`
  kPartitionRacks,   // cut every link between rack `node` and rack `other`
  kHealPartition,    // remove all partitions
  kRpcDelay,         // +`param` us on every non-loopback RPC
  kRpcDrop,          // drop `param` per million RPCs (deterministic)
  kClearRpcFaults,   // clear delay + drop
  kCrashMaster,      // crash master instance `node`
  kRestartMaster,    // restart master instance `node`
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  sim::VirtualTime at = 0;
  FaultKind kind = FaultKind::kCrashServer;
  int node = -1;   // node id, master index, or rack id (kPartitionRacks)
  int other = -1;  // peer node/rack for partitions
  int64_t param = 0;

  std::string ToString() const;
};

/// An ordered fault schedule. Build one explicitly with Add() or generate a
/// seeded random plan with Random(); either way the event order is total
/// and deterministic (stable sort by time, ties keep insertion order).
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& Add(FaultEvent event);
  FaultPlan& Crash(sim::VirtualTime at, int node);
  FaultPlan& Restart(sim::VirtualTime at, int node);
  FaultPlan& Kill(sim::VirtualTime at, int node);
  FaultPlan& PartitionNodes(sim::VirtualTime at, int a, int b);
  FaultPlan& PartitionRacks(sim::VirtualTime at, int rack_a, int rack_b);
  FaultPlan& Heal(sim::VirtualTime at);
  FaultPlan& DiskStall(sim::VirtualTime at, int node, sim::VirtualTime us);
  FaultPlan& DiskClear(sim::VirtualTime at, int node);
  FaultPlan& DiskErrors(sim::VirtualTime at, int node, int count);
  FaultPlan& MetaErrors(sim::VirtualTime at, int count);
  FaultPlan& RpcDelay(sim::VirtualTime at, sim::VirtualTime us);
  FaultPlan& RpcDrop(sim::VirtualTime at, int per_million);
  FaultPlan& ClearRpcFaults(sim::VirtualTime at);
  FaultPlan& CrashMaster(sim::VirtualTime at, int master);
  FaultPlan& RestartMaster(sim::VirtualTime at, int master);

  struct RandomOptions {
    int num_nodes = 3;
    sim::VirtualTime horizon_us = 1000 * 1000;
    int num_faults = 4;
    bool allow_kill = false;  // machine kills are permanent; opt in
  };
  /// A seeded schedule of fault/heal windows: same seed, same plan.
  static FaultPlan Random(uint64_t seed, const RandomOptions& options);

  /// Time-sorted events (stable: simultaneous events keep insert order).
  std::vector<FaultEvent> Sorted() const;
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

  /// The schedule as text — the determinism digest chaos tests compare.
  std::string ToString() const;

 private:
  std::vector<FaultEvent> events_;
};

/// How the injector reaches into the system under test. Wire only what the
/// plan needs; firing an event with no wired target is an error (the plan
/// asked for a fault the harness can't deliver).
struct FaultTargets {
  int num_nodes = 0;
  int num_masters = 0;
  std::function<void(int)> crash_server;
  std::function<Status(int)> restart_server;
  std::function<Status(int)> kill_node;
  std::function<void(int)> restart_data_node;
  std::function<sim::DiskModel*(int)> disk;
  std::function<void(int, int)> inject_disk_errors;  // (node, count)
  std::function<void(int)> inject_meta_errors;       // (count)
  std::function<void(int)> crash_master;             // master index
  std::function<Status(int)> restart_master;         // master index
  std::function<int(int)> rack_of;                   // node -> rack id
  sim::NetworkModel* network = nullptr;
};

/// Targets wired to a MiniCluster (servers, data nodes, disks, masters,
/// network, rack layout).
FaultTargets ClusterTargets(cluster::MiniCluster* cluster);

/// Fires plan events as virtual time passes and serves as the network's
/// fault policy while alive. Thread-safe; events themselves are applied on
/// the caller's thread, outside the injector's lock.
class FaultInjector : public sim::NetworkFaultPolicy {
 public:
  FaultInjector(FaultTargets targets, FaultPlan plan, uint64_t seed = 0);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Fires every event with `at` <= now, in schedule order; returns how
  /// many fired. Call this from the workload loop with the ambient virtual
  /// time (or a phase boundary).
  Result<int> AdvanceTo(sim::VirtualTime now);
  /// Fires all remaining events regardless of time.
  Result<int> FireAll();
  /// Events not yet fired.
  size_t pending() const;

  // sim::NetworkFaultPolicy:
  bool Reachable(int src, int dst) override;
  sim::VirtualTime ExtraDelayUs(int src, int dst) override;

  /// Quiescence helpers: clear network and disk fault state so recovery
  /// can be checked against a healed cluster.
  void HealNetwork();
  void ClearDiskFaults();

  /// Nodes killed (machine-level) so far — their servers must not be
  /// restarted (their tablets were adopted elsewhere).
  bool IsNodeDead(int node) const;
  std::vector<int> DeadNodes() const;
  /// Servers crashed (process-level) and not yet restarted.
  std::vector<int> CrashedServers() const;
  /// Master instances crashed and not yet restarted.
  std::vector<int> CrashedMasters() const;

  /// The events fired so far, as text, in delivery order (replay digest).
  std::vector<std::string> DeliveredLog() const;
  const std::vector<FaultEvent>& schedule() const { return events_; }

 private:
  Status Apply(const FaultEvent& event) EXCLUDES(mu_);
  static uint64_t PairKey(int a, int b);
  void BlockPairLocked(int a, int b) REQUIRES(mu_);

  // Fixed after construction; target callbacks fire outside mu_ by design.
  FaultTargets targets_;
  std::vector<FaultEvent> events_;  // sorted schedule, fixed after ctor
  const uint64_t seed_;

  mutable OrderedMutex mu_{lockrank::kFaultState, "fault.state"};
  size_t next_ GUARDED_BY(mu_) = 0;            // next event to fire
  std::set<uint64_t> blocked_ GUARDED_BY(mu_);  // partitioned node pairs
  std::set<int> dead_nodes_ GUARDED_BY(mu_);
  std::set<int> crashed_servers_ GUARDED_BY(mu_);
  std::set<int> crashed_masters_ GUARDED_BY(mu_);
  std::vector<std::string> delivered_ GUARDED_BY(mu_);

  std::atomic<sim::VirtualTime> extra_delay_us_{0};
  std::atomic<int> drop_ppm_{0};
  mutable std::atomic<uint64_t> drop_counter_{0};
};

}  // namespace logbase::fault

#endif  // LOGBASE_FAULT_FAULT_INJECTOR_H_

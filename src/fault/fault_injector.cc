#include "src/fault/fault_injector.h"

#include <algorithm>
#include <limits>

#include "src/cluster/mini_cluster.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace logbase::fault {

namespace {

obs::Counter* InjectedEvents() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.injected.events");
  return c;
}

obs::Counter* InjectedPartitions() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.injected.partitions");
  return c;
}

obs::Counter* InjectedRpcDrops() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.injected.rpc_drops");
  return c;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashServer: return "crash_server";
    case FaultKind::kRestartServer: return "restart_server";
    case FaultKind::kKillNode: return "kill_node";
    case FaultKind::kRestartDataNode: return "restart_data_node";
    case FaultKind::kDiskStall: return "disk_stall";
    case FaultKind::kDiskClear: return "disk_clear";
    case FaultKind::kDiskErrors: return "disk_errors";
    case FaultKind::kMetaErrors: return "meta_errors";
    case FaultKind::kPartitionNodes: return "partition_nodes";
    case FaultKind::kPartitionRacks: return "partition_racks";
    case FaultKind::kHealPartition: return "heal_partition";
    case FaultKind::kRpcDelay: return "rpc_delay";
    case FaultKind::kRpcDrop: return "rpc_drop";
    case FaultKind::kClearRpcFaults: return "clear_rpc_faults";
    case FaultKind::kCrashMaster: return "crash_master";
    case FaultKind::kRestartMaster: return "restart_master";
  }
  return "unknown";
}

std::string FaultEvent::ToString() const {
  std::string out = "t=" + std::to_string(at) + " " + FaultKindName(kind);
  out += "(node=" + std::to_string(node);
  if (other >= 0) out += ", other=" + std::to_string(other);
  if (param != 0) out += ", param=" + std::to_string(param);
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// FaultPlan.
// ---------------------------------------------------------------------------

FaultPlan& FaultPlan::Add(FaultEvent event) {
  events_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::Crash(sim::VirtualTime at, int node) {
  return Add({at, FaultKind::kCrashServer, node});
}
FaultPlan& FaultPlan::Restart(sim::VirtualTime at, int node) {
  return Add({at, FaultKind::kRestartServer, node});
}
FaultPlan& FaultPlan::Kill(sim::VirtualTime at, int node) {
  return Add({at, FaultKind::kKillNode, node});
}
FaultPlan& FaultPlan::PartitionNodes(sim::VirtualTime at, int a, int b) {
  return Add({at, FaultKind::kPartitionNodes, a, b});
}
FaultPlan& FaultPlan::PartitionRacks(sim::VirtualTime at, int rack_a,
                                     int rack_b) {
  return Add({at, FaultKind::kPartitionRacks, rack_a, rack_b});
}
FaultPlan& FaultPlan::Heal(sim::VirtualTime at) {
  return Add({at, FaultKind::kHealPartition});
}
FaultPlan& FaultPlan::DiskStall(sim::VirtualTime at, int node,
                                sim::VirtualTime us) {
  return Add({at, FaultKind::kDiskStall, node, -1, us});
}
FaultPlan& FaultPlan::DiskClear(sim::VirtualTime at, int node) {
  return Add({at, FaultKind::kDiskClear, node});
}
FaultPlan& FaultPlan::DiskErrors(sim::VirtualTime at, int node, int count) {
  return Add({at, FaultKind::kDiskErrors, node, -1, count});
}
FaultPlan& FaultPlan::MetaErrors(sim::VirtualTime at, int count) {
  return Add({at, FaultKind::kMetaErrors, -1, -1, count});
}
FaultPlan& FaultPlan::RpcDelay(sim::VirtualTime at, sim::VirtualTime us) {
  return Add({at, FaultKind::kRpcDelay, -1, -1, us});
}
FaultPlan& FaultPlan::RpcDrop(sim::VirtualTime at, int per_million) {
  return Add({at, FaultKind::kRpcDrop, -1, -1, per_million});
}
FaultPlan& FaultPlan::ClearRpcFaults(sim::VirtualTime at) {
  return Add({at, FaultKind::kClearRpcFaults});
}
FaultPlan& FaultPlan::CrashMaster(sim::VirtualTime at, int master) {
  return Add({at, FaultKind::kCrashMaster, master});
}
FaultPlan& FaultPlan::RestartMaster(sim::VirtualTime at, int master) {
  return Add({at, FaultKind::kRestartMaster, master});
}

std::vector<FaultEvent> FaultPlan::Sorted() const {
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return sorted;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& e : Sorted()) {
    out += e.ToString();
    out += "\n";
  }
  return out;
}

/// A random plan's crashes, partitions and disk stalls heal this long after
/// they start.
constexpr sim::VirtualTime kRecoveryDelayUs = 100 * 1000;

FaultPlan FaultPlan::Random(uint64_t seed, const RandomOptions& options) {
  FaultPlan plan;
  // Qualified: inside this scope `Random` names this factory, not the PRNG.
  logbase::Random rnd(seed != 0 ? seed : 1);
  for (int i = 0; i < options.num_faults; i++) {
    auto at = static_cast<sim::VirtualTime>(
        rnd.Uniform(static_cast<uint32_t>(options.horizon_us)));
    int node = static_cast<int>(rnd.Uniform(options.num_nodes));
    switch (rnd.Uniform(options.allow_kill ? 5 : 4)) {
      case 0:  // crash + scheduled restart
        plan.Crash(at, node);
        plan.Restart(at + kRecoveryDelayUs, node);
        break;
      case 1: {  // partition window
        int other = static_cast<int>(rnd.Uniform(options.num_nodes));
        if (other == node) other = (other + 1) % options.num_nodes;
        plan.PartitionNodes(at, node, other);
        plan.Heal(at + kRecoveryDelayUs);
        break;
      }
      case 2:  // disk stall window
        plan.DiskStall(at, node, 2000 + rnd.Uniform(20000));
        plan.DiskClear(at + kRecoveryDelayUs, node);
        break;
      case 3:  // a burst of disk I/O errors
        plan.DiskErrors(at, node, 1 + static_cast<int>(rnd.Uniform(4)));
        break;
      case 4:  // permanent machine death
        plan.Kill(at, node);
        break;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// ClusterTargets.
// ---------------------------------------------------------------------------

FaultTargets ClusterTargets(cluster::MiniCluster* cluster) {
  FaultTargets t;
  t.num_nodes = cluster->num_nodes();
  t.num_masters = cluster->num_masters();
  t.crash_server = [cluster](int node) { cluster->CrashServer(node); };
  t.restart_server = [cluster](int node) {
    return cluster->RestartServer(node);
  };
  t.kill_node = [cluster](int node) { return cluster->KillNode(node); };
  t.restart_data_node = [cluster](int node) {
    cluster->dfs()->RestartDataNode(node);
  };
  t.disk = [cluster](int node) {
    return cluster->dfs()->data_node(node)->disk();
  };
  t.inject_disk_errors = [cluster](int node, int count) {
    cluster->dfs()->data_node(node)->InjectIoErrors(count);
  };
  t.inject_meta_errors = [cluster](int count) {
    cluster->dfs()->name_node()->InjectAllocateFailures(count);
  };
  t.crash_master = [cluster](int i) { cluster->masters(i)->Crash(); };
  t.restart_master = [cluster](int i) { return cluster->masters(i)->Start(); };
  int nodes_per_rack = cluster->dfs()->options().nodes_per_rack;
  t.rack_of = [nodes_per_rack](int node) {
    return node / std::max(1, nodes_per_rack);
  };
  t.network = cluster->network();
  return t;
}

// ---------------------------------------------------------------------------
// FaultInjector.
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(FaultTargets targets, FaultPlan plan,
                             uint64_t seed)
    : targets_(std::move(targets)), events_(plan.Sorted()), seed_(seed) {
  if (targets_.network != nullptr) {
    targets_.network->set_fault_policy(this);
  }
}

FaultInjector::~FaultInjector() {
  if (targets_.network != nullptr &&
      targets_.network->fault_policy() == this) {
    targets_.network->set_fault_policy(nullptr);
  }
}

uint64_t FaultInjector::PairKey(int a, int b) {
  auto lo = static_cast<uint64_t>(std::min(a, b));
  auto hi = static_cast<uint64_t>(std::max(a, b));
  return (lo << 32) | hi;
}

void FaultInjector::BlockPairLocked(int a, int b) {
  blocked_.insert(PairKey(a, b));
}

Result<int> FaultInjector::AdvanceTo(sim::VirtualTime now) {
  int fired = 0;
  for (;;) {
    FaultEvent event;
    {
      MutexLock l(mu_);
      if (next_ >= events_.size() || events_[next_].at > now) break;
      event = events_[next_++];
    }
    // Applied outside mu_: kill/restart reach deep into the cluster and may
    // themselves run transfers that consult Reachable().
    Status s = Apply(event);
    {
      MutexLock l(mu_);
      delivered_.push_back(event.ToString());
    }
    InjectedEvents()->Add();
    LOGBASE_LOG(kInfo, "fault injected: %s", event.ToString().c_str());
    if (!s.ok()) return s;
    fired++;
  }
  return fired;
}

Result<int> FaultInjector::FireAll() {
  return AdvanceTo(std::numeric_limits<sim::VirtualTime>::max());
}

size_t FaultInjector::pending() const {
  MutexLock l(mu_);
  return events_.size() - next_;
}

Status FaultInjector::Apply(const FaultEvent& event) {
  auto need = [&event](bool wired) -> Status {
    if (wired) return Status::OK();
    return Status::InvalidArgument(std::string("no target wired for ") +
                                   FaultKindName(event.kind));
  };
  switch (event.kind) {
    case FaultKind::kCrashServer:
      LOGBASE_RETURN_NOT_OK(need(targets_.crash_server != nullptr));
      targets_.crash_server(event.node);
      {
        MutexLock l(mu_);
        crashed_servers_.insert(event.node);
      }
      return Status::OK();
    case FaultKind::kRestartServer: {
      LOGBASE_RETURN_NOT_OK(need(targets_.restart_server != nullptr));
      LOGBASE_RETURN_NOT_OK(targets_.restart_server(event.node));
      MutexLock l(mu_);
      crashed_servers_.erase(event.node);
      return Status::OK();
    }
    case FaultKind::kKillNode: {
      LOGBASE_RETURN_NOT_OK(need(targets_.kill_node != nullptr));
      LOGBASE_RETURN_NOT_OK(targets_.kill_node(event.node));
      MutexLock l(mu_);
      dead_nodes_.insert(event.node);
      crashed_servers_.erase(event.node);
      return Status::OK();
    }
    case FaultKind::kRestartDataNode: {
      LOGBASE_RETURN_NOT_OK(need(targets_.restart_data_node != nullptr));
      targets_.restart_data_node(event.node);
      MutexLock l(mu_);
      dead_nodes_.erase(event.node);
      return Status::OK();
    }
    case FaultKind::kDiskStall:
      LOGBASE_RETURN_NOT_OK(need(targets_.disk != nullptr));
      targets_.disk(event.node)->set_stall_us(event.param);
      return Status::OK();
    case FaultKind::kDiskClear:
      LOGBASE_RETURN_NOT_OK(need(targets_.disk != nullptr));
      targets_.disk(event.node)->set_stall_us(0);
      return Status::OK();
    case FaultKind::kDiskErrors:
      LOGBASE_RETURN_NOT_OK(need(targets_.inject_disk_errors != nullptr));
      targets_.inject_disk_errors(event.node,
                                  static_cast<int>(event.param));
      return Status::OK();
    case FaultKind::kMetaErrors:
      LOGBASE_RETURN_NOT_OK(need(targets_.inject_meta_errors != nullptr));
      targets_.inject_meta_errors(static_cast<int>(event.param));
      return Status::OK();
    case FaultKind::kPartitionNodes: {
      MutexLock l(mu_);
      BlockPairLocked(event.node, event.other);
      InjectedPartitions()->Add();
      return Status::OK();
    }
    case FaultKind::kPartitionRacks: {
      LOGBASE_RETURN_NOT_OK(need(targets_.rack_of != nullptr));
      MutexLock l(mu_);
      for (int i = 0; i < targets_.num_nodes; i++) {
        for (int j = 0; j < targets_.num_nodes; j++) {
          if (targets_.rack_of(i) == event.node &&
              targets_.rack_of(j) == event.other) {
            BlockPairLocked(i, j);
          }
        }
      }
      InjectedPartitions()->Add();
      return Status::OK();
    }
    case FaultKind::kHealPartition: {
      MutexLock l(mu_);
      blocked_.clear();
      return Status::OK();
    }
    case FaultKind::kRpcDelay:
      extra_delay_us_.store(event.param, std::memory_order_relaxed);
      return Status::OK();
    case FaultKind::kRpcDrop:
      drop_ppm_.store(static_cast<int>(event.param),
                      std::memory_order_relaxed);
      return Status::OK();
    case FaultKind::kClearRpcFaults:
      extra_delay_us_.store(0, std::memory_order_relaxed);
      drop_ppm_.store(0, std::memory_order_relaxed);
      return Status::OK();
    case FaultKind::kCrashMaster: {
      LOGBASE_RETURN_NOT_OK(need(targets_.crash_master != nullptr));
      targets_.crash_master(event.node);
      MutexLock l(mu_);
      crashed_masters_.insert(event.node);
      return Status::OK();
    }
    case FaultKind::kRestartMaster: {
      LOGBASE_RETURN_NOT_OK(need(targets_.restart_master != nullptr));
      LOGBASE_RETURN_NOT_OK(targets_.restart_master(event.node));
      MutexLock l(mu_);
      crashed_masters_.erase(event.node);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown fault kind");
}

bool FaultInjector::Reachable(int src, int dst) {
  if (src == dst) return true;
  int ppm = drop_ppm_.load(std::memory_order_relaxed);
  if (ppm > 0) {
    uint64_t n = drop_counter_.fetch_add(1, std::memory_order_relaxed);
    if (Mix(seed_ ^ n) % 1000000 < static_cast<uint64_t>(ppm)) {
      InjectedRpcDrops()->Add();
      return false;
    }
  }
  MutexLock l(mu_);
  return blocked_.count(PairKey(src, dst)) == 0;
}

sim::VirtualTime FaultInjector::ExtraDelayUs(int src, int dst) {
  (void)src;
  (void)dst;
  return extra_delay_us_.load(std::memory_order_relaxed);
}

void FaultInjector::HealNetwork() {
  MutexLock l(mu_);
  blocked_.clear();
  extra_delay_us_.store(0, std::memory_order_relaxed);
  drop_ppm_.store(0, std::memory_order_relaxed);
}

void FaultInjector::ClearDiskFaults() {
  if (targets_.disk != nullptr) {
    for (int i = 0; i < targets_.num_nodes; i++) {
      targets_.disk(i)->set_stall_us(0);
    }
  }
  if (targets_.inject_disk_errors != nullptr) {
    for (int i = 0; i < targets_.num_nodes; i++) {
      targets_.inject_disk_errors(i, 0);
    }
  }
  if (targets_.inject_meta_errors != nullptr) {
    targets_.inject_meta_errors(0);
  }
}

bool FaultInjector::IsNodeDead(int node) const {
  MutexLock l(mu_);
  return dead_nodes_.count(node) > 0;
}

std::vector<int> FaultInjector::DeadNodes() const {
  MutexLock l(mu_);
  return {dead_nodes_.begin(), dead_nodes_.end()};
}

std::vector<int> FaultInjector::CrashedServers() const {
  MutexLock l(mu_);
  return {crashed_servers_.begin(), crashed_servers_.end()};
}

std::vector<int> FaultInjector::CrashedMasters() const {
  MutexLock l(mu_);
  return {crashed_masters_.begin(), crashed_masters_.end()};
}

std::vector<std::string> FaultInjector::DeliveredLog() const {
  MutexLock l(mu_);
  return delivered_;
}

}  // namespace logbase::fault

#include "src/cluster/mini_cluster.h"

#include <algorithm>

#include "src/util/logging.h"

namespace logbase::cluster {

MiniCluster::MiniCluster(MiniClusterOptions options)
    : options_(std::move(options)) {
  options_.dfs.num_nodes = options_.num_nodes;
  network_ = std::make_unique<sim::NetworkModel>(options_.num_nodes,
                                                 options_.network);
  dfs_ = std::make_unique<dfs::Dfs>(options_.dfs, network_.get());
  coord_ = std::make_unique<coord::CoordinationService>(network_.get(),
                                                        /*host_node=*/0);
  for (int node = 0; node < options_.num_nodes; node++) {
    tablet::TabletServerOptions server_options = options_.server_template;
    server_options.server_id = node;
    servers_.push_back(std::make_unique<tablet::TabletServer>(
        server_options, dfs_.get(), coord_.get()));
  }
  std::vector<int> server_ids;
  for (int node = 0; node < options_.num_nodes; node++) {
    server_ids.push_back(node);
  }
  for (int i = 0; i < options_.num_replicas; i++) {
    replica::ReplicaServerOptions replica_options = options_.replica_template;
    replica_options.replica_id = i;
    replica_options.node = (i + 1) % options_.num_nodes;
    // Replicas get the coordination service so their quota registries see
    // /meta/quota updates made through the master (src/qos/).
    replicas_.push_back(std::make_unique<replica::ReplicaServer>(
        replica_options, dfs_.get(), coord_.get()));
  }
  std::vector<int> replica_ids;
  for (int i = 0; i < options_.num_replicas; i++) replica_ids.push_back(i);
  int num_masters = std::max(1, options_.num_masters);
  for (int i = 0; i < num_masters; i++) {
    masters_.push_back(std::make_unique<master::Master>(
        coord_.get(), /*node=*/i % options_.num_nodes,
        [this](int id) {
          return (id >= 0 && id < static_cast<int>(servers_.size()))
                     ? servers_[id].get()
                     : nullptr;
        },
        server_ids));
    masters_.back()->SetReplicaFleet(replica_ids, [this](int id) {
      return (id >= 0 && id < static_cast<int>(replicas_.size()))
                 ? replicas_[id].get()
                 : nullptr;
    });
  }
  balancer_ = std::make_unique<balance::Balancer>(
      [this]() { return active_master(); }, options_.balancer);
}

MiniCluster::~MiniCluster() {
  for (auto& server : servers_) {
    // Teardown path: a failed final checkpoint can't be reported here.
    if (server->running()) (void)server->Stop();
  }
}

Status MiniCluster::Start() {
  for (auto& server : servers_) {
    LOGBASE_RETURN_NOT_OK(server->Start());
  }
  for (auto& replica : replicas_) {
    LOGBASE_RETURN_NOT_OK(replica->Start());
  }
  for (auto& master : masters_) {
    LOGBASE_RETURN_NOT_OK(master->Start());
  }
  LOGBASE_LOG(kInfo, "mini cluster started: %d nodes, %d masters, %d replicas",
              options_.num_nodes, static_cast<int>(masters_.size()),
              static_cast<int>(replicas_.size()));
  return Status::OK();
}

master::Master* MiniCluster::active_master() {
  for (auto& master : masters_) {
    if (!master->running()) continue;
    auto promoted = master->TryPromote();
    if (promoted.ok() && *promoted) return master.get();
  }
  return nullptr;
}

std::unique_ptr<client::LogBaseClient> MiniCluster::NewClient(int node) {
  auto client = std::make_unique<client::LogBaseClient>(
      [this]() { return active_master(); },
      [this](int id) {
        return (id >= 0 && id < static_cast<int>(servers_.size()))
                   ? servers_[id].get()
                   : nullptr;
      },
      coord_.get(), node, network_.get());
  client->set_replica_resolver([this](int id) {
    return (id >= 0 && id < static_cast<int>(replicas_.size()))
               ? replicas_[id].get()
               : nullptr;
  });
  return client;
}

Status MiniCluster::TickReplicas() {
  for (auto& replica : replicas_) {
    if (!replica->running()) continue;
    LOGBASE_RETURN_NOT_OK(replica->TickTailers());
  }
  return Status::OK();
}

void MiniCluster::CrashReplica(int i) { replicas_[i]->Crash(); }

Status MiniCluster::RestartReplica(int i) {
  LOGBASE_RETURN_NOT_OK(replicas_[i]->Start());
  master::Master* master = active_master();
  if (master == nullptr) return Status::Unavailable("no active master");
  return master->ReseedReplica(i);
}

void MiniCluster::CrashServer(int node) { servers_[node]->Crash(); }

Status MiniCluster::RestartServer(int node, tablet::RecoveryStats* stats) {
  return servers_[node]->Start(stats);
}

Status MiniCluster::KillNode(int node) {
  servers_[node]->Crash();
  dfs_->KillDataNode(node);
  auto copied = dfs_->HealUnderReplicated();
  if (!copied.ok()) return copied.status();
  return Status::OK();
}

void MiniCluster::CrashMaster(int i) { masters_[i]->Crash(); }

Status MiniCluster::RestartMaster(int i) { return masters_[i]->Start(); }

obs::MetricsSnapshot MiniCluster::DumpMetrics() const {
  return obs::MetricsRegistry::Global().Snapshot();
}

void MiniCluster::ResetMetrics() { obs::MetricsRegistry::Global().Reset(); }

}  // namespace logbase::cluster

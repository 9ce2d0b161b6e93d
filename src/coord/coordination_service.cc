#include "src/coord/coordination_service.h"

namespace logbase::coord {

CoordinationService::CoordinationService(sim::NetworkModel* network,
                                         int host_node)
    : network_(network), host_node_(host_node) {}

void CoordinationService::ChargeRoundTrip(int client_node,
                                          uint64_t bytes) const {
  if (network_ != nullptr) {
    network_->Transfer(client_node, host_node_, bytes);
    network_->Transfer(host_node_, client_node, bytes);
  }
  sim::ChargeCpu(sim::costs::kCoordinationUs);
}

SessionId CoordinationService::CreateSession(int client_node) {
  ChargeRoundTrip(client_node);
  return tree_.CreateSession();
}

void CoordinationService::CloseSession(SessionId session) {
  tree_.CloseSession(session);
}

bool CoordinationService::SessionAlive(SessionId session) const {
  return tree_.SessionAlive(session);
}

uint64_t CoordinationService::ReserveTimestamps(int client_node,
                                                uint32_t count) {
  ChargeRoundTrip(client_node);
  return clock_.fetch_add(count, std::memory_order_relaxed) + 1;
}

std::optional<uint64_t> CoordinationService::CreateAllAndStamp(
    SessionId session, const std::vector<std::string>& paths,
    const std::string& data, CreateMode mode, int client_node) {
  ChargeRoundTrip(client_node);
  if (!tree_.CreateAll(session, paths, data, mode).ok()) return std::nullopt;
  return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t CoordinationService::LatestTimestamp() const {
  return clock_.load(std::memory_order_relaxed);
}

}  // namespace logbase::coord

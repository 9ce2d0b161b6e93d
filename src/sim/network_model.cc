#include "src/sim/network_model.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace logbase::sim {

namespace {

obs::Counter* UnreachableTransfers() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("sim.net.unreachable_transfers");
  return c;
}

}  // namespace

NetworkModel::NetworkModel(int num_nodes, NetworkParams params)
    : params_(params) {
  tx_.reserve(num_nodes);
  rx_.reserve(num_nodes);
  for (int i = 0; i < num_nodes; i++) {
    tx_.push_back(
        std::make_unique<Resource>("nic-" + std::to_string(i) + "-tx"));
    rx_.push_back(
        std::make_unique<Resource>("nic-" + std::to_string(i) + "-rx"));
  }
}

VirtualTime NetworkModel::TransferUs(uint64_t bytes) const {
  double bytes_per_us = params_.bandwidth_mb_per_s;  // 1 MB/s == 1 byte/us
  return static_cast<VirtualTime>(static_cast<double>(bytes) / bytes_per_us) +
         1;
}

bool NetworkModel::Reachable(int src, int dst) {
  if (src == dst) return true;
  NetworkFaultPolicy* policy = fault_policy();
  if (policy == nullptr) return true;
  if (policy->Reachable(src, dst)) return true;
  UnreachableTransfers()->Add();
  return false;
}

VirtualTime NetworkModel::TransferFrom(VirtualTime start, int src, int dst,
                                       uint64_t bytes) {
  if (src == dst) return start + params_.loopback_us;
  VirtualTime overhead = params_.rpc_overhead_us;
  NetworkFaultPolicy* policy = fault_policy();
  if (policy != nullptr) overhead += policy->ExtraDelayUs(src, dst);
  VirtualTime wire = TransferUs(bytes);
  // The sender's egress and the receiver's ingress stream the payload
  // concurrently and are occupied for the wire time only; the fixed
  // overhead is software/stack latency added to the transfer's completion,
  // not NIC occupancy. (Folding the overhead into the Acquire start would
  // reserve the NIC across the software window — under FCFS that serializes
  // stack time on the wire and caps a node at ~1/overhead RPCs per second
  // regardless of payload size.)
  VirtualTime sent = tx_[src]->Acquire(start, wire);
  VirtualTime received = rx_[dst]->Acquire(start, wire);
  return std::max(sent, received) + overhead;
}

void NetworkModel::Transfer(int src, int dst, uint64_t bytes) {
  SimContext* ctx = SimContext::Current();
  if (ctx == nullptr) return;
  ctx->AdvanceTo(TransferFrom(ctx->now(), src, dst, bytes));
}

void ChargeRpc(NetworkModel* network, int client, int server,
               uint64_t request_payload, uint64_t response_payload) {
  if (network == nullptr) return;
  network->Transfer(client, server, request_payload + kRpcRequestHeaderBytes);
  network->Transfer(server, client,
                    response_payload + kRpcResponseHeaderBytes);
}

}  // namespace logbase::sim

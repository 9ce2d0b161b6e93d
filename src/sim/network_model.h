// The cluster interconnect: one NIC resource per node on a 1 GbE network
// (the paper's testbed). An RPC pays fixed software/propagation overhead plus
// serialization of the payload on both endpoints' NICs. Same-node transfers
// pay only a loopback cost.

#ifndef LOGBASE_SIM_NETWORK_MODEL_H_
#define LOGBASE_SIM_NETWORK_MODEL_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/resource.h"
#include "src/sim/sim_context.h"

namespace logbase::sim {

/// Hook consulted on every transfer; a fault injector implements this to
/// model partitions (Reachable == false) and slow links (extra per-RPC
/// latency). Implementations must be thread-safe and must not call back
/// into NetworkModel.
class NetworkFaultPolicy {
 public:
  virtual ~NetworkFaultPolicy() = default;
  /// False when src and dst are partitioned from each other (or the RPC is
  /// dropped). A false result may consume a per-RPC drop decision, so call
  /// once per attempted RPC, not speculatively.
  virtual bool Reachable(int src, int dst) = 0;
  /// Extra one-way latency injected on the src->dst link, in microseconds.
  virtual VirtualTime ExtraDelayUs(int src, int dst) = 0;
};

struct NetworkParams {
  /// Per-RPC fixed overhead (kernel + switch + stack).
  VirtualTime rpc_overhead_us = 150;
  /// Same-node (loopback / in-process) call overhead.
  VirtualTime loopback_us = 15;
  /// 1 GbE payload bandwidth.
  double bandwidth_mb_per_s = 117.0;
};

/// NICs for a cluster of `num_nodes` nodes. Thread-safe.
class NetworkModel {
 public:
  NetworkModel(int num_nodes, NetworkParams params = NetworkParams());

  /// Charges a transfer of `bytes` from node `src` to node `dst` to the
  /// ambient SimContext. No-op without one.
  void Transfer(int src, int dst, uint64_t bytes);

  /// Like Transfer but from an explicit start time; returns the completion
  /// time without touching any context (pipelined operations).
  VirtualTime TransferFrom(VirtualTime start, int src, int dst,
                           uint64_t bytes);

  int num_nodes() const { return static_cast<int>(tx_.size()); }
  /// Egress (transmit) side of a node's NIC. The link is full duplex — a
  /// node streaming data out does not delay data streaming in — so each
  /// direction is its own FCFS resource.
  Resource* nic_tx(int node) { return tx_[node].get(); }
  /// Ingress (receive) side of a node's NIC.
  Resource* nic_rx(int node) { return rx_[node].get(); }
  const NetworkParams& params() const { return params_; }

  /// Installs (or clears, with nullptr) the fault policy. The policy must
  /// outlive the model or be cleared before destruction.
  void set_fault_policy(NetworkFaultPolicy* policy) {
    fault_policy_.store(policy, std::memory_order_release);
  }
  NetworkFaultPolicy* fault_policy() const {
    return fault_policy_.load(std::memory_order_acquire);
  }

  /// True when an RPC from src to dst would currently go through. With no
  /// fault policy installed every pair is reachable.
  bool Reachable(int src, int dst);

 private:
  VirtualTime TransferUs(uint64_t bytes) const;

  const NetworkParams params_;
  std::vector<std::unique_ptr<Resource>> tx_;
  std::vector<std::unique_ptr<Resource>> rx_;
  std::atomic<NetworkFaultPolicy*> fault_policy_{nullptr};
};

/// RPC framing: the header bytes a simulated request and its response carry
/// on top of their payloads.
inline constexpr uint64_t kRpcRequestHeaderBytes = 64;
inline constexpr uint64_t kRpcResponseHeaderBytes = 32;

/// Charges one RPC from `client` to `server` to the ambient SimContext: the
/// request payload plus its header out, then the response payload plus its
/// header back, as two transfers from the current time. Every client call
/// to a tablet server or read replica pays its network cost here, so
/// callers pass payload sizes only. No-op when `network` is null.
void ChargeRpc(NetworkModel* network, int client, int server,
               uint64_t request_payload, uint64_t response_payload);

}  // namespace logbase::sim

#endif  // LOGBASE_SIM_NETWORK_MODEL_H_

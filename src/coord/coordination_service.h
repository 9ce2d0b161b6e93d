// The cluster's coordination service: a znode tree plus the global
// commit-timestamp authority (the paper uses Zookeeper as a timestamp
// authority to establish a global order for committed update transactions,
// §3.7.1). Every call charges a coordination round-trip to the ambient
// virtual clock; no call hands out a timestamp without one.

#ifndef LOGBASE_COORD_COORDINATION_SERVICE_H_
#define LOGBASE_COORD_COORDINATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/coord/znode_tree.h"
#include "src/sim/costs.h"
#include "src/sim/network_model.h"

namespace logbase::coord {

/// One logical Zookeeper ensemble. Thread-safe. Holds the znode tree, hands
/// out sessions, and issues globally ordered timestamps.
class CoordinationService {
 public:
  /// `network` may be null (no cost modeling); `host_node` is the machine the
  /// ensemble leader runs on, for network charging.
  explicit CoordinationService(sim::NetworkModel* network = nullptr,
                               int host_node = 0);

  ZnodeTree* znodes() { return &tree_; }

  SessionId CreateSession(int client_node);
  void CloseSession(SessionId session);
  bool SessionAlive(SessionId session) const;

  /// Reserves `count` consecutive timestamps with one round-trip and returns
  /// the first; the caller hands them out locally. Auto-commit writes
  /// amortize the timestamp authority this way (transaction commits draw
  /// theirs with CreateAllAndStamp, preserving the global commit order of
  /// §3.7.1).
  uint64_t ReserveTimestamps(int client_node, uint32_t count);

  /// One multi in one round-trip: ZnodeTree::CreateAll of `paths`, plus, when
  /// every node was created, the next globally unique, monotonically
  /// increasing timestamp (ZooKeeper's sequential node in the same multi).
  /// Returns nullopt, drawing nothing, when the create fails.
  std::optional<uint64_t> CreateAllAndStamp(
      SessionId session, const std::vector<std::string>& paths,
      const std::string& data, CreateMode mode, int client_node);

  /// The most recently issued timestamp (reads of a "current snapshot" use
  /// this without consuming a timestamp).
  uint64_t LatestTimestamp() const;

  /// Charges one coordination round-trip from `client_node` (quorum write
  /// latency + network); public so recipes built on the raw znode tree
  /// (election, locks) can charge their calls too.
  void ChargeRoundTrip(int client_node, uint64_t bytes = 64) const;

 private:
  ZnodeTree tree_;
  sim::NetworkModel* network_;
  const int host_node_;
  std::atomic<uint64_t> clock_{0};
};

}  // namespace logbase::coord

#endif  // LOGBASE_COORD_COORDINATION_SERVICE_H_

// A Zookeeper-like hierarchical znode store: persistent/ephemeral and
// sequential nodes, sessions whose expiry removes their ephemerals, and
// one-shot watches. Master election, tablet-server liveness tracking and the
// distributed write locks of MVOCC validation are built on this substrate
// (the paper delegates all three to Zookeeper, §3.3/§3.7).

#ifndef LOGBASE_COORD_ZNODE_TREE_H_
#define LOGBASE_COORD_ZNODE_TREE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

#include "src/util/ordered_mutex.h"

namespace logbase::coord {

using SessionId = uint64_t;

enum class CreateMode {
  kPersistent,
  kEphemeral,
  kPersistentSequential,
  kEphemeralSequential,
};

/// Invoked once when the watched node (or child set) changes; the argument is
/// the path of the node the watch was set on.
using WatchCallback = std::function<void(const std::string& path)>;

/// Thread-safe znode tree. Paths are absolute, '/'-separated, no trailing
/// slash; the root "/" always exists.
class ZnodeTree {
 public:
  ZnodeTree() = default;
  ZnodeTree(const ZnodeTree&) = delete;
  ZnodeTree& operator=(const ZnodeTree&) = delete;

  SessionId CreateSession();
  /// Expires the session: deletes its ephemeral nodes and fires watches.
  void CloseSession(SessionId session);
  bool SessionAlive(SessionId session) const;

  /// Creates a node. The parent must exist. For sequential modes a
  /// zero-padded monotonically increasing suffix is appended; the returned
  /// string is the actual path created.
  Result<std::string> Create(SessionId session, const std::string& path,
                             const std::string& data, CreateMode mode);

  /// Creates every path in `paths` holding `data`, or none of them, under
  /// one tree lock (ZooKeeper's multi). A path that already exists holding
  /// `data` counts as created, so an owner can retake what it holds; any
  /// other existing node, a missing parent, a bad path or a sequential
  /// mode fails the whole call.
  Status CreateAll(SessionId session, const std::vector<std::string>& paths,
                   const std::string& data, CreateMode mode);

  Result<std::string> Get(const std::string& path) const;
  Status Set(const std::string& path, const std::string& data);
  /// Deletes a node; fails if it has children (ZK semantics).
  Status Delete(const std::string& path);
  /// Deletes every path in `paths` whose node holds `data`, under one tree
  /// lock; other nodes, and nodes with children, are left alone.
  void DeleteAll(const std::vector<std::string>& paths,
                 const std::string& data);
  bool Exists(const std::string& path) const;
  /// Child *names* (not full paths), sorted.
  Result<std::vector<std::string>> GetChildren(const std::string& path) const;

  /// One-shot watch on data change or deletion of `path`.
  void WatchNode(const std::string& path, WatchCallback callback);
  /// One-shot watch on the child set of `path`.
  void WatchChildren(const std::string& path, WatchCallback callback);

 private:
  struct Znode {
    std::string data;
    CreateMode mode = CreateMode::kPersistent;
    SessionId owner = 0;  // for ephemerals
    uint64_t next_sequence = 0;
  };

  /// Returns fired callbacks to run outside the lock.
  std::vector<std::pair<WatchCallback, std::string>> CollectNodeWatches(
      const std::string& path) REQUIRES(mu_);
  std::vector<std::pair<WatchCallback, std::string>> CollectChildWatches(
      const std::string& parent) REQUIRES(mu_);
  static std::string ParentOf(const std::string& path);
  static bool ValidPath(const std::string& path);
  bool HasChildrenLocked(const std::string& path) const REQUIRES(mu_);
  Status DeleteLocked(
      const std::string& path,
      std::vector<std::pair<WatchCallback, std::string>>* fired)
      REQUIRES(mu_);

  mutable OrderedMutex mu_{lockrank::kCoordZnodes, "coord.znodes"};
  std::map<std::string, Znode> nodes_
      GUARDED_BY(mu_);  // sorted: children via prefix range
  std::map<std::string, std::vector<WatchCallback>> node_watches_
      GUARDED_BY(mu_);
  std::map<std::string, std::vector<WatchCallback>> child_watches_
      GUARDED_BY(mu_);
  std::set<SessionId> sessions_ GUARDED_BY(mu_);
  SessionId next_session_ GUARDED_BY(mu_) = 1;
  uint64_t root_sequence_counter_ GUARDED_BY(mu_) =
      0;  // sequence numbers for "/" children
};

}  // namespace logbase::coord

#endif  // LOGBASE_COORD_ZNODE_TREE_H_

// A Zookeeper-like hierarchical znode store: persistent/ephemeral and
// sequential nodes, and sessions whose expiry removes their ephemerals.
// Master election, tablet-server liveness tracking and the
// distributed write locks of MVOCC validation are built on this substrate
// (the paper delegates all three to Zookeeper, §3.3/§3.7).

#ifndef LOGBASE_COORD_ZNODE_TREE_H_
#define LOGBASE_COORD_ZNODE_TREE_H_

#include <cstdint>
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

/// Thread-safe znode tree. Paths are absolute, '/'-separated, no trailing
/// slash; the root "/" always exists.
class ZnodeTree {
 public:
  ZnodeTree() = default;
  ZnodeTree(const ZnodeTree&) = delete;
  ZnodeTree& operator=(const ZnodeTree&) = delete;

  SessionId CreateSession();
  /// Expires the session: deletes its ephemeral nodes.
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

 private:
  struct Znode {
    std::string data;
    CreateMode mode = CreateMode::kPersistent;
    SessionId owner = 0;  // for ephemerals
    uint64_t next_sequence = 0;
  };

  static std::string ParentOf(const std::string& path);
  static bool ValidPath(const std::string& path);
  bool HasChildrenLocked(const std::string& path) const REQUIRES(mu_);
  Status DeleteLocked(const std::string& path) REQUIRES(mu_);

  mutable OrderedMutex mu_{lockrank::kCoordZnodes, "coord.znodes"};
  std::map<std::string, Znode> nodes_
      GUARDED_BY(mu_);  // sorted: children via prefix range
  std::set<SessionId> sessions_ GUARDED_BY(mu_);
  SessionId next_session_ GUARDED_BY(mu_) = 1;
  uint64_t root_sequence_counter_ GUARDED_BY(mu_) =
      0;  // sequence numbers for "/" children
};

}  // namespace logbase::coord

#endif  // LOGBASE_COORD_ZNODE_TREE_H_

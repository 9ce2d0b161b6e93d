// The master node (paper §3.3): metadata (tables, column groups, range
// partitions), tablet-to-server assignment, and tablet-server failure
// handling (permanent failures reassign tablets; the new owners recover from
// the dead server's log in the shared DFS, §3.8). Multiple masters may run;
// the active one is elected through the coordination service. The master is
// off the data path: clients cache routing information.

#ifndef LOGBASE_MASTER_MASTER_H_
#define LOGBASE_MASTER_MASTER_H_

#include <atomic>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/coord/coordination_service.h"
#include "src/coord/master_election.h"
#include "src/master/meta_codec.h"
#include "src/replica/replica_server.h"
#include "src/tablet/schema.h"
#include "src/tablet/tablet_server.h"

#include "src/util/ordered_mutex.h"

namespace logbase::master {

/// Whether a reassignment of `parent_uid` to `children` retires the parent
/// (no child keeps its uid, as in a split). A retired parent must vanish from
/// every involved server's recovery metadata, not just from the assignments.
inline bool RetiresParent(const std::string& parent_uid,
                          const std::vector<TabletLocation>& children) {
  for (const TabletLocation& child : children) {
    if (child.descriptor.uid() == parent_uid) return false;
  }
  return true;
}

/// Creates each of `paths` that is missing, in order (parents first), as an
/// empty persistent znode. Losing a creation race to another session is not
/// an error.
Status EnsureZnodes(coord::ZnodeTree* znodes, coord::SessionId session,
                    std::initializer_list<const char*> paths);

class Master {
 public:
  /// `server_resolver` maps a server id to its live TabletServer (nullptr
  /// when down); `server_ids` is the set of machines in the cluster.
  Master(coord::CoordinationService* coord, int node,
         std::function<tablet::TabletServer*(int)> server_resolver,
         std::vector<int> server_ids);

  /// Joins the master election; the winner recovers persisted metadata from
  /// the coordination service.
  Status Start();
  /// Graceful shutdown: resigns the election and closes the session.
  Status Stop();
  /// Simulated process crash: the session dies (ephemerals vanish) and all
  /// in-memory metadata is lost. Persisted metadata survives in znodes; a
  /// standby (or this master after Start()) recovers it via TryPromote().
  void Crash();
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool IsActiveMaster() const {
    return running() && election_ != nullptr && election_->IsLeader();
  }

  /// Called on a standby after the active master's session dies: when this
  /// master now leads the election, it reloads table schemas and tablet
  /// assignments persisted in znodes and becomes the active master. Returns
  /// whether this master is (now) the active, recovered master. Idempotent.
  Result<bool> TryPromote();

  // -- DDL ---------------------------------------------------------------

  /// Creates a table with the given column groups; each group is range-
  /// partitioned at `split_keys` (n split keys = n + 1 tablets per group).
  /// Tablets of the same range across groups co-locate on one server, so a
  /// row's column groups share a machine (entity-group clustering, §3.2).
  Result<tablet::TableSchema> CreateTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::vector<std::vector<std::string>>& column_groups,
      const std::vector<std::string>& split_keys);

  /// Adds a column group to an existing table (same range partitioning).
  Status AddColumnGroup(const std::string& table,
                        const std::vector<std::string>& columns);

  Result<tablet::TableSchema> GetTable(const std::string& name) const;

  // -- Routing -----------------------------------------------------------

  Result<TabletLocation> Locate(const std::string& table,
                                uint32_t column_group,
                                const Slice& key) const;
  /// All tablets of one column group, key-ordered (scan fan-out).
  Result<std::vector<TabletLocation>> LocateAll(const std::string& table,
                                                uint32_t column_group) const;

  // -- Balancer support (src/balance/) -------------------------------------

  /// Copy of the current assignment table (uid -> location).
  std::map<std::string, TabletLocation> AssignmentsSnapshot() const;
  Result<TabletLocation> GetAssignment(const std::string& uid) const;
  tablet::TabletServer* ResolveServer(int server_id) const {
    return server_resolver_(server_id);
  }
  coord::CoordinationService* coord() const { return coord_; }
  coord::SessionId session() const { return session_; }
  int node() const { return node_; }
  /// Per-server load scores from the balancer's smoothed reports; consulted
  /// as a tie-break by placement decisions. May be empty (returns 0).
  void set_load_hint(std::function<double(int)> hint);

  /// The commit point of a reassignment (src/balance/migration.h): drops the
  /// parent's replicas, persists every child's assignment, then removes the
  /// parent's (map entry + znode) when it is retired. Active master only.
  Status CommitReassign(const std::string& parent_uid,
                        const std::vector<TabletLocation>& children);
  /// Fresh range ids for split children (max over current assignments of the
  /// (table, group) + 1). Fails when the 20-bit range-id space would
  /// overflow the packed tablet id.
  Result<std::vector<uint32_t>> AllocateRangeIds(uint32_t table_id,
                                                 uint32_t column_group,
                                                 int count);

  // -- Read replicas (src/replica/) ----------------------------------------

  /// Registers the read-replica fleet: `resolver` maps a replica id to its
  /// live ReplicaServer (nullptr when down). Replicas are compute-only and
  /// never appear in /servers; the master drives attach/detach/reseed.
  void SetReplicaFleet(std::vector<int> replica_ids,
                       std::function<replica::ReplicaServer*(int)> resolver)
      EXCLUDES(mu_);
  replica::ReplicaServer* ResolveReplica(int replica_id) const EXCLUDES(mu_) {
    MutexLock l(mu_);
    return ResolveReplicaLocked(replica_id);
  }
  std::vector<int> ReplicaFleet() const EXCLUDES(mu_) {
    MutexLock l(mu_);
    return replica_ids_;
  }

  /// Attaches one more read replica to `uid`, picked least-loaded among
  /// running replicas not already serving it. Seeds it from the owner's
  /// checkpoint + log tail and persists the replica set. Returns the chosen
  /// replica id.
  Result<int> AddReplica(const std::string& uid);
  /// Detaches every replica of `uid` (best-effort on down replicas) and
  /// deletes its persisted replica set.
  Status DropReplicas(const std::string& uid);
  /// Re-seeds every tablet assigned to `replica_id` after it restarted (a
  /// replica loses all soft state on crash/stop).
  Status ReseedReplica(int replica_id);

  // -- Multi-tenant QoS (src/qos/) -----------------------------------------

  /// Installs (or replaces) a tenant quota: persists it under
  /// /meta/quota/<tenant>, the one copy every server's admission controller
  /// reads within one refresh interval; it survives master failover.
  /// Active master only.
  Status SetQuota(const qos::QuotaSpec& spec);

  // -- Failure handling ----------------------------------------------------

  /// Servers whose liveness znode is present.
  std::vector<int> LiveServers() const;

  /// Treats `dead_server` as permanently failed: every tablet it hosted is
  /// adopted by a live server (checkpoint reload + filtered log redo).
  Status HandleServerFailure(int dead_server);

  /// Compares assignments against liveness znodes and handles every dead
  /// server found. Returns the number of servers handled.
  Result<int> DetectAndHandleFailures();

 private:
  Status AssignTablet(const tablet::TabletDescriptor& descriptor,
                      int server_id) REQUIRES(mu_);
  /// Placement-aware target choice: fewest assigned tablets (counting the
  /// caller's `planned` but-not-yet-persisted placements), load-hint
  /// tie-break. -1 when `live` is empty.
  int PickServerForRange(const std::vector<int>& live,
                         const std::map<int, int>& planned) const
      REQUIRES(mu_);
  replica::ReplicaServer* ResolveReplicaLocked(int replica_id) const
      REQUIRES(mu_) {
    return replica_resolver_ ? replica_resolver_(replica_id) : nullptr;
  }
  /// CommitReassign without the leadership check; children whose
  /// assignment already names their server are skipped, so reconcile can
  /// finish a commit that was cut short.
  Status CommitReassignLocked(const std::string& parent_uid,
                              const std::vector<TabletLocation>& children)
      REQUIRES(mu_);
  /// Rolls surviving reassignment intents forward or back after this master
  /// recovers metadata (the previous active master died mid-protocol).
  Status ReconcileIntentsLocked() REQUIRES(mu_);

  // Metadata persistence (znodes under /meta): schemas + split keys under
  // /meta/tables/<name>, assignments under /meta/assign/<uid>.
  Status PersistTableLocked(const std::string& name) REQUIRES(mu_);
  Status PersistAssignmentLocked(const TabletLocation& location)
      REQUIRES(mu_);
  Status PersistReplicaSetLocked(const std::string& uid) REQUIRES(mu_);
  /// Creates `parents`, charges one round trip of `data.size()` bytes, then
  /// creates or overwrites the persistent znode `path`.
  Status UpsertZnodeLocked(std::initializer_list<const char*> parents,
                           const std::string& path, const std::string& data)
      REQUIRES(mu_);
  /// Detaches `uid`'s replicas and drops the persisted set. Used when the
  /// tablet's log stream changes owner (migration/split/failure), which
  /// invalidates every replica's tail cursor.
  void DropReplicasLocked(const std::string& uid) REQUIRES(mu_);
  Status RecoverMetadataLocked() REQUIRES(mu_);

  coord::CoordinationService* const coord_;
  const int node_;
  const std::function<tablet::TabletServer*(int)> server_resolver_;
  const std::vector<int> server_ids_;
  // Written by Start/Stop/Crash only (the lifecycle is single-threaded);
  // no data-path thread touches the session or the election handle.
  coord::SessionId session_ = 0;
  std::unique_ptr<coord::MasterElection> election_;
  std::atomic<bool> running_{false};

  mutable OrderedMutex mu_{lockrank::kMasterState, "master.state"};
  // Leader that has recovered persisted metadata.
  bool promoted_ GUARDED_BY(mu_) = false;
  std::map<std::string, tablet::TableSchema> tables_ GUARDED_BY(mu_);
  // Per table.
  std::map<std::string, std::vector<std::string>> split_keys_ GUARDED_BY(mu_);
  // By uid.
  std::map<std::string, TabletLocation> assignments_ GUARDED_BY(mu_);
  uint32_t next_table_id_ GUARDED_BY(mu_) = 1;
  // Balancer-fed, may be empty.
  std::function<double(int)> load_hint_ GUARDED_BY(mu_);
  // Read-replica fleet (may be empty).
  std::vector<int> replica_ids_ GUARDED_BY(mu_);
  std::function<replica::ReplicaServer*(int)> replica_resolver_
      GUARDED_BY(mu_);
};

}  // namespace logbase::master

#endif  // LOGBASE_MASTER_MASTER_H_

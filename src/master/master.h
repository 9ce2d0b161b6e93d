// The master node (paper §3.3): metadata (tables, column groups, range
// partitions), tablet-to-server assignment, and tablet reassignment. One
// routine moves tablets for live migration, hot-tablet splitting and
// permanent server failure alike (§3.8 applied to elasticity): a parent
// tablet on its owner is replaced by a list of children (descriptor + server
// each), and each child's server rebuilds its index from the owner's
// checkpoint and log in the shared DFS — no data is copied. Multiple masters
// may run; the active one is elected through the coordination service. The
// master is off the data path: clients cache routing information.
//
// Crash safety: every reassignment writes a durable intent znode
// (/meta/reassign/<parent uid>) before its first side effect and deletes it
// after the last, so one tablet never has two reassignments in flight. The
// persisted assignment flip is the single commit point; a master promoted
// mid-protocol rolls the surviving intent forward iff some child's
// assignment landed, and back otherwise (TryPromote).

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

/// Reassignment steps, in execution order, for fault-injection hooks: a test
/// crashes the master after a named step and asserts the reconcile outcome.
/// "Source" is the parent's owner, "dest" every child's server. A dead
/// source (failure adoption) skips the three source steps.
enum class MigrationStep {
  kIntentPersisted,
  kSourceSealed,
  kCheckpointFlushed,
  kDestAdopted,        // each child built and its server checkpointed
  kAssignmentFlipped,  // commit point
  kSourceClosed,
  kIntentCleared,
};

const char* MigrationStepName(MigrationStep step);

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
  /// assignments persisted in znodes, settles every surviving reassignment
  /// intent (forward through the reassignment routine when committed, back
  /// otherwise) and becomes the active master. `mu_` is held only while
  /// metadata loads, not across the server calls of reconcile; a concurrent
  /// caller meanwhile gets false. Returns whether this master is (now) the
  /// active, recovered master. Idempotent.
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
  /// The server `server_id` when it is up, else nullptr.
  tablet::TabletServer* RunningServer(int server_id) const;
  coord::CoordinationService* coord() const { return coord_; }
  coord::SessionId session() const { return session_; }
  int node() const { return node_; }
  /// Per-server load scores from the balancer's smoothed reports; consulted
  /// as a tie-break by placement decisions. May be empty (returns 0).
  void set_load_hint(std::function<double(int)> hint);

  /// Fires after each completed reassignment step; leadership is re-checked
  /// after the hook returns, so a hook that crashes the master aborts the
  /// protocol exactly there (the intent znode stays behind for reconcile).
  void set_step_hook(std::function<void(MigrationStep)> hook) EXCLUDES(mu_);

  /// Moves `uid` to server `to` with no acked-write loss: a reassignment to
  /// one child with the parent's descriptor. Unavailable when the owner is
  /// down (a dead owner's tablets move through failure handling).
  Status MigrateTablet(const std::string& uid, int to);
  /// Splits `uid` at `split_key` (strictly interior): the left child stays
  /// on the owner, the right child lands on `right_server`. Children get
  /// fresh range ids and rebuild their indexes from the parent's checkpoint
  /// + log tail, filtered by range — no data is copied or rewritten.
  /// Unavailable when the owner is down.
  Status SplitTablet(const std::string& uid, const std::string& split_key,
                     int right_server);
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

  /// Treats `dead_server` as permanently failed: each tablet it hosted is
  /// reassigned, one at a time, from the dead server as source to the
  /// least-loaded live server (one child with the tablet's descriptor). The
  /// adopter rebuilds the tablet from the dead server's checkpoint and log
  /// and checkpoints before the new assignment is persisted; the intent
  /// znode makes a master crash mid-adoption reconcile like any other
  /// reassignment.
  Status HandleServerFailure(int dead_server);

  /// Compares assignments against liveness znodes and runs
  /// HandleServerFailure for every dead server found. Returns the number of
  /// servers handled.
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
  /// The reassignment routine: replaces `parent` on `owner` with
  /// `children`. Intent; when the owner runs, seal the parent and checkpoint
  /// the owner; each child's server adopts its child unless it already
  /// hosts it, and every adopter checkpoints; commit; close the parent on a
  /// running owner; clear the intent. A retired parent (no child keeps its
  /// uid) also re-checkpoints every involved server after the close, or a
  /// restart would recover the parent beside its children. `resume` starts
  /// at the adopt step of a committed intent that a crashed master left
  /// behind: down child servers are skipped, and errors keep the intent.
  /// Otherwise errors before the commit roll back inline while this master
  /// still leads; Busy when `parent` already has an intent. Takes `mu_` only
  /// for the commit.
  Status Reassign(int owner, const tablet::TabletDescriptor& parent,
                  const std::vector<TabletLocation>& children, bool resume)
      EXCLUDES(mu_);
  /// Undoes an uncommitted reassignment: closes each child on its running
  /// server, unseals the parent on a running owner, deletes the intent.
  void RollBackReassign(int owner, const std::string& parent_uid,
                        const std::vector<TabletLocation>& children) const;
  /// Fires the step hook, then verifies this master still leads.
  Status AfterStep(MigrationStep step) EXCLUDES(mu_);
  /// The commit point of a reassignment: drops the parent's replicas,
  /// persists every child's assignment, then removes the parent's (map
  /// entry + znode) when it is retired. Children whose assignment already
  /// names their server are skipped, so reconcile can finish a commit that
  /// was cut short.
  Status CommitReassignLocked(const std::string& parent_uid,
                              const std::vector<TabletLocation>& children)
      REQUIRES(mu_);
  /// Rolls surviving reassignment intents forward or back after this master
  /// recovers metadata (the previous active master died mid-protocol).
  Status ReconcileIntents() EXCLUDES(mu_);

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
  // A TryPromote is reconciling intents outside mu_.
  bool promoting_ GUARDED_BY(mu_) = false;
  std::function<void(MigrationStep)> step_hook_ GUARDED_BY(mu_);
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

// Live tablet migration and hot-tablet splitting over the shared DFS log
// (paper §3.8 applied to elasticity) as one reassignment protocol: a parent
// tablet on its owner is replaced by a list of children (descriptor +
// server each). Moving a tablet never copies data — the owner seals writes
// and flushes an index checkpoint, each child's server reloads that
// checkpoint filtered to the child's range and redoes only the log tail past
// it, and the master persists the children's assignments. A migration is
// one child with the parent's descriptor on another server; a split is two
// children with fresh range ids sharing the parent's log history.
//
// Crash safety: every reassignment writes a durable intent znode
// (/meta/reassign/<parent uid>) before its first side effect and deletes it
// after the last, so one tablet never has two reassignments in flight. The
// persisted assignment flip is the single commit point; a master promoted
// mid-protocol rolls the surviving intent forward iff some child's
// assignment landed (Master::ReconcileIntents).

#ifndef LOGBASE_BALANCE_MIGRATION_H_
#define LOGBASE_BALANCE_MIGRATION_H_

#include <functional>
#include <string>
#include <vector>

#include "src/master/master.h"
#include "src/util/status.h"

namespace logbase::balance {

/// Protocol steps, in execution order, for fault-injection hooks: a test
/// crashes the master after a named step and asserts the reconcile outcome.
/// "Source" is the parent's owner, "dest" every child's server.
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

/// Drives one migration or split on behalf of the active master. Not a
/// long-lived object: construct against the current active master per
/// operation (the balancer does this every tick).
class MigrationCoordinator {
 public:
  explicit MigrationCoordinator(master::Master* master) : master_(master) {}

  /// Fires after each completed step; leadership is re-checked after the
  /// hook returns, so a hook that crashes the master aborts the protocol
  /// exactly there (the intent znode stays behind for reconcile).
  void set_step_hook(std::function<void(MigrationStep)> hook) {
    hook_ = std::move(hook);
  }

  /// Moves `uid` to server `to` with no acked-write loss: a reassignment to
  /// one child with the parent's descriptor.
  Status MigrateTablet(const std::string& uid, int to);

  /// Splits `uid` at `split_key` (strictly interior): the left child stays
  /// on the owner, the right child lands on `right_server`. Children get
  /// fresh range ids and rebuild their indexes from the parent's checkpoint
  /// + log tail, filtered by range — no data is copied or rewritten.
  Status SplitTablet(const std::string& uid, const std::string& split_key,
                     int right_server);

 private:
  /// Replaces `parent_uid` on its owner with `children`: intent, seal the
  /// parent, checkpoint the owner, each child's server adopts its child,
  /// checkpoint the child servers, commit, close the parent, clear the
  /// intent. A retired parent (no child keeps its uid) also re-checkpoints
  /// every involved server after the close, or a restart would recover the
  /// parent beside its children. Errors before the commit roll back inline
  /// (each child closed, parent unsealed, intent cleared) while this master
  /// still leads; Busy when `parent_uid` already has an intent.
  Status Reassign(const std::string& parent_uid,
                  const std::vector<master::TabletLocation>& children);

  /// Fires the hook, then verifies this master still leads.
  Status AfterStep(MigrationStep step);

  master::Master* const master_;
  std::function<void(MigrationStep)> hook_;
};

}  // namespace logbase::balance

#endif  // LOGBASE_BALANCE_MIGRATION_H_

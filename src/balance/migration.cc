#include "src/balance/migration.h"

#include <algorithm>

#include "src/master/meta_codec.h"
#include "src/util/logging.h"

namespace logbase::balance {

const char* MigrationStepName(MigrationStep step) {
  switch (step) {
    case MigrationStep::kIntentPersisted: return "intent-persisted";
    case MigrationStep::kSourceSealed: return "source-sealed";
    case MigrationStep::kCheckpointFlushed: return "checkpoint-flushed";
    case MigrationStep::kDestAdopted: return "dest-adopted";
    case MigrationStep::kAssignmentFlipped: return "assignment-flipped";
    case MigrationStep::kSourceClosed: return "source-closed";
    case MigrationStep::kIntentCleared: return "intent-cleared";
  }
  return "unknown";
}

Status MigrationCoordinator::AfterStep(MigrationStep step) {
  if (hook_) hook_(step);
  if (!master_->IsActiveMaster()) {
    return Status::Unavailable(
        std::string("master lost leadership after step ") +
        MigrationStepName(step));
  }
  return Status::OK();
}

Status MigrationCoordinator::MigrateTablet(const std::string& uid, int to) {
  if (!master_->IsActiveMaster()) {
    return Status::Unavailable("not the active master");
  }
  auto loc = master_->GetAssignment(uid);
  if (!loc.ok()) return loc.status();
  if (loc->server_id == to) {
    return Status::InvalidArgument("tablet already on target");
  }
  return Reassign(uid, {master::TabletLocation{loc->descriptor, to}});
}

Status MigrationCoordinator::SplitTablet(const std::string& uid,
                                         const std::string& split_key,
                                         int right_server) {
  if (!master_->IsActiveMaster()) {
    return Status::Unavailable("not the active master");
  }
  auto loc = master_->GetAssignment(uid);
  if (!loc.ok()) return loc.status();
  const tablet::TabletDescriptor& parent = loc->descriptor;
  if (!parent.Contains(Slice(split_key)) || split_key == parent.start_key) {
    return Status::InvalidArgument("split key not interior to " + uid);
  }
  // Children take fresh range ids: reusing the parent's uid would route
  // stale-cached clients at the wrong half and collide checkpoint files.
  auto ids = master_->AllocateRangeIds(parent.table_id, parent.column_group, 2);
  if (!ids.ok()) return ids.status();
  master::TabletLocation left{parent, loc->server_id};
  left.descriptor.range_id = (*ids)[0];
  left.descriptor.end_key = split_key;
  master::TabletLocation right{parent, right_server};
  right.descriptor.range_id = (*ids)[1];
  right.descriptor.start_key = split_key;
  return Reassign(uid, {left, right});
}

Status MigrationCoordinator::Reassign(
    const std::string& parent_uid,
    const std::vector<master::TabletLocation>& children) {
  auto loc = master_->GetAssignment(parent_uid);
  if (!loc.ok()) return loc.status();
  const int owner = loc->server_id;
  tablet::TabletServer* src = master_->ResolveServer(owner);
  if (src == nullptr || !src->running()) {
    return Status::Unavailable("reassignment source is down");
  }
  // Each child's server, and the distinct ones in child order: those are
  // the servers whose recovery metadata must name the children.
  std::vector<tablet::TabletServer*> dst;
  std::vector<tablet::TabletServer*> dst_servers;
  for (const master::TabletLocation& child : children) {
    tablet::TabletServer* server = master_->ResolveServer(child.server_id);
    if (server == nullptr || !server->running()) {
      return Status::Unavailable("reassignment target is down");
    }
    dst.push_back(server);
    if (std::find(dst_servers.begin(), dst_servers.end(), server) ==
        dst_servers.end()) {
      dst_servers.push_back(server);
    }
  }

  coord::ZnodeTree* znodes = master_->coord()->znodes();
  LOGBASE_RETURN_NOT_OK(master::EnsureZnodes(
      znodes, master_->session(),
      {master::meta::kMetaRoot, master::meta::kMetaReassign}));
  const std::string path = master::meta::ReassignPath(parent_uid);
  if (znodes->Exists(path)) {
    return Status::Busy("reassignment already in flight: " + parent_uid);
  }

  // Step 1: durable intent. A master promoted mid-protocol decides from
  // this intent + the persisted assignments whether to roll forward or back.
  std::string intent =
      master::meta::EncodeReassignIntent(owner, loc->descriptor, children);
  master_->coord()->ChargeRoundTrip(master_->node(), intent.size());
  auto created = znodes->Create(master_->session(), path, intent,
                                coord::CreateMode::kPersistent);
  if (!created.ok()) return created.status();
  LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kIntentPersisted));

  // Inline rollback for failures before the commit point, while this master
  // still leads; a successor repeats the same rollback from the intent.
  auto fail = [&](const Status& s) -> Status {
    for (size_t i = 0; i < children.size(); i++) {
      (void)dst[i]->CloseTablet(children[i].descriptor.uid());
    }
    (void)src->UnsealTablet(parent_uid);
    (void)znodes->Delete(path);
    return s;
  };

  // Step 2: fence the parent. No write can be acked past this point, so
  // the checkpoint + tail the children read below is complete.
  Status s = src->SealTablet(parent_uid);
  if (!s.ok()) return fail(s);
  s = AfterStep(MigrationStep::kSourceSealed);
  if (!s.ok()) return s;

  // Step 3: flush the owner's index checkpoint; it bounds each child's
  // replay to the log tail written since.
  s = src->Checkpoint();
  if (!s.ok()) return fail(s);
  s = AfterStep(MigrationStep::kCheckpointFlushed);
  if (!s.ok()) return s;

  // Step 4: each child's server rebuilds the child's index from the owner's
  // checkpoint + tail, filtered to the child's range, then checkpoints
  // itself — its own recovery metadata must name the child (with pointers
  // into the owner's log), or a later failure of that server would lose the
  // child's history.
  tablet::RecoveryStats stats;
  for (size_t i = 0; i < children.size(); i++) {
    s = dst[i]->AdoptTablet(children[i].descriptor,
                            static_cast<uint32_t>(owner), &stats);
    if (!s.ok()) return fail(s);
  }
  for (tablet::TabletServer* server : dst_servers) {
    s = server->Checkpoint();
    if (!s.ok()) return fail(s);
  }
  s = AfterStep(MigrationStep::kDestAdopted);
  if (!s.ok()) return s;

  // Step 5: commit point — persist the children's assignments.
  s = master_->CommitReassign(parent_uid, children);
  if (!s.ok()) return fail(s);
  s = AfterStep(MigrationStep::kAssignmentFlipped);
  if (!s.ok()) return s;  // committed; a successor rolls forward

  // Steps 6-7: release the parent and clear the intent. Failures here are
  // finished by the next promote's reconcile.
  (void)src->CloseTablet(parent_uid);
  s = AfterStep(MigrationStep::kSourceClosed);
  if (!s.ok()) return s;
  if (master::RetiresParent(parent_uid, children)) {
    // Re-checkpoint every involved server: its recovery metadata must name
    // the children, not the parent, or a restart resurrects the parent
    // alongside them.
    (void)src->Checkpoint();
    for (tablet::TabletServer* server : dst_servers) {
      if (server != src) (void)server->Checkpoint();
    }
  }
  master_->coord()->ChargeRoundTrip(master_->node());
  (void)znodes->Delete(path);
  s = AfterStep(MigrationStep::kIntentCleared);
  if (!s.ok()) return s;

  LOGBASE_LOG(kInfo,
              "reassigned tablet %s on server %d to %zu children (%llu "
              "checkpoint entries, %llu redo records)",
              parent_uid.c_str(), owner, children.size(),
              static_cast<unsigned long long>(stats.checkpoint_entries),
              static_cast<unsigned long long>(stats.redo_records));
  return Status::OK();
}

}  // namespace logbase::balance

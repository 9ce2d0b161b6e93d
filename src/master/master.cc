#include "src/master/master.h"

#include <algorithm>

#include "src/balance/placement.h"
#include "src/master/meta_codec.h"
#include "src/tablet/checkpoint_internal.h"
#include "src/util/logging.h"

namespace logbase::master {

namespace {

using meta::kMetaAssign;
using meta::kMetaRoot;
using meta::kMetaTables;

}  // namespace

Master::Master(coord::CoordinationService* coord, int node,
               std::function<tablet::TabletServer*(int)> server_resolver,
               std::vector<int> server_ids)
    : coord_(coord),
      node_(node),
      server_resolver_(std::move(server_resolver)),
      server_ids_(std::move(server_ids)) {}

Status Master::Start() {
  session_ = coord_->CreateSession(node_);
  election_ = std::make_unique<coord::MasterElection>(
      coord_, session_, "master-" + std::to_string(node_), node_);
  LOGBASE_RETURN_NOT_OK(election_->Campaign());
  running_.store(true, std::memory_order_release);
  // The election winner recovers persisted metadata right away; standbys
  // stay passive until TryPromote() finds them leading.
  auto promoted = TryPromote();
  if (!promoted.ok()) return promoted.status();
  return Status::OK();
}

Status Master::Stop() {
  if (!running()) return Status::OK();
  running_.store(false, std::memory_order_release);
  if (election_ != nullptr) election_->Resign();
  coord_->CloseSession(session_);
  MutexLock l(mu_);
  promoted_ = false;
  return Status::OK();
}

void Master::Crash() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  // No graceful resign: the session dies and its ephemerals (the election
  // node) vanish, which is what lets a standby take over.
  coord_->CloseSession(session_);
  election_.reset();
  MutexLock l(mu_);
  promoted_ = false;
  tables_.clear();
  split_keys_.clear();
  assignments_.clear();
  next_table_id_ = 1;
}

Result<bool> Master::TryPromote() {
  if (!IsActiveMaster()) return false;
  {
    MutexLock l(mu_);
    if (promoted_) return true;
    if (promoting_) return false;
    LOGBASE_RETURN_NOT_OK(RecoverMetadataLocked());
    promoting_ = true;
  }
  // Outside mu_: a committed intent resumes the reassignment routine, which
  // calls servers and takes mu_ only for its commit.
  Status reconciled = ReconcileIntents();
  MutexLock l(mu_);
  promoting_ = false;
  LOGBASE_RETURN_NOT_OK(reconciled);
  if (!IsActiveMaster()) return false;
  promoted_ = true;
  LOGBASE_LOG(kInfo, "master %d promoted to active: %zu tables, %zu tablets",
              node_, tables_.size(), assignments_.size());
  return true;
}

Status EnsureZnodes(coord::ZnodeTree* znodes, coord::SessionId session,
                    std::initializer_list<const char*> paths) {
  for (const char* path : paths) {
    if (znodes->Exists(path)) continue;
    auto created =
        znodes->Create(session, path, "", coord::CreateMode::kPersistent);
    if (!created.ok() && !znodes->Exists(path)) return created.status();
  }
  return Status::OK();
}

Status Master::UpsertZnodeLocked(std::initializer_list<const char*> parents,
                                 const std::string& path,
                                 const std::string& data) {
  coord::ZnodeTree* znodes = coord_->znodes();
  LOGBASE_RETURN_NOT_OK(EnsureZnodes(znodes, session_, parents));
  coord_->ChargeRoundTrip(node_, data.size());
  if (znodes->Exists(path)) return znodes->Set(path, data);
  auto created =
      znodes->Create(session_, path, data, coord::CreateMode::kPersistent);
  return created.ok() ? Status::OK() : created.status();
}

Status Master::PersistTableLocked(const std::string& name) {
  return UpsertZnodeLocked(
      {kMetaRoot, kMetaTables, kMetaAssign}, meta::TablePath(name),
      meta::EncodeTableMeta(tables_[name], split_keys_[name]));
}

Status Master::PersistAssignmentLocked(const TabletLocation& location) {
  return UpsertZnodeLocked(
      {kMetaRoot, kMetaAssign}, meta::AssignPath(location.descriptor.uid()),
      meta::EncodeAssignment(location.server_id, location.descriptor));
}

Status Master::PersistReplicaSetLocked(const std::string& uid) {
  auto it = assignments_.find(uid);
  if (it == assignments_.end()) {
    return Status::NotFound("tablet not assigned: " + uid);
  }
  return UpsertZnodeLocked({kMetaRoot, meta::kMetaReplica},
                           meta::ReplicaPath(uid),
                           meta::EncodeReplicaSet(it->second.replicas));
}

Status Master::SetQuota(const qos::QuotaSpec& spec) {
  MutexLock l(mu_);
  if (!promoted_) return Status::Unavailable("not the active master");
  if (spec.tenant.empty()) {
    return Status::InvalidArgument("quota needs a tenant");
  }
  LOGBASE_RETURN_NOT_OK(UpsertZnodeLocked({kMetaRoot, qos::kMetaQuota},
                                          qos::QuotaPath(spec.tenant),
                                          qos::EncodeQuotaSpec(spec)));
  LOGBASE_LOG(kInfo, "master %d set quota %s: %.0f ops/s (burst %.0f)",
              node_, spec.tenant.c_str(), spec.ops_per_sec, spec.ops_burst);
  return Status::OK();
}

void Master::DropReplicasLocked(const std::string& uid) {
  auto it = assignments_.find(uid);
  if (it == assignments_.end() || it->second.replicas.empty()) return;
  for (int replica_id : it->second.replicas) {
    replica::ReplicaServer* rep = ResolveReplicaLocked(replica_id);
    // Best-effort: a down replica already lost the attachment with the rest
    // of its soft state.
    if (rep != nullptr && rep->running()) (void)rep->RemoveTablet(uid);
  }
  it->second.replicas.clear();
  coord_->ChargeRoundTrip(node_);
  (void)coord_->znodes()->Delete(meta::ReplicaPath(uid));
  LOGBASE_LOG(kInfo, "master %d dropped replicas of %s", node_, uid.c_str());
}

Status Master::RecoverMetadataLocked() {
  tables_.clear();
  split_keys_.clear();
  assignments_.clear();
  next_table_id_ = 1;
  coord::ZnodeTree* znodes = coord_->znodes();
  coord_->ChargeRoundTrip(node_);
  if (znodes->Exists(kMetaTables)) {
    auto names = znodes->GetChildren(kMetaTables);
    if (!names.ok()) return names.status();
    for (const std::string& name : *names) {
      auto data = znodes->Get(std::string(kMetaTables) + "/" + name);
      if (!data.ok()) return data.status();
      tablet::TableSchema schema;
      std::vector<std::string> splits;
      if (!meta::DecodeTableMeta(Slice(*data), &schema, &splits)) {
        return Status::Corruption("bad table metadata for " + name);
      }
      next_table_id_ = std::max(next_table_id_, schema.id + 1);
      tables_[name] = std::move(schema);
      split_keys_[name] = std::move(splits);
    }
  }
  if (znodes->Exists(kMetaAssign)) {
    auto uids = znodes->GetChildren(kMetaAssign);
    if (!uids.ok()) return uids.status();
    for (const std::string& uid : *uids) {
      auto data = znodes->Get(std::string(kMetaAssign) + "/" + uid);
      if (!data.ok()) return data.status();
      TabletLocation location;
      if (!meta::DecodeAssignment(Slice(*data), &location.server_id,
                                  &location.descriptor)) {
        return Status::Corruption("bad assignment metadata for " + uid);
      }
      assignments_[uid] = std::move(location);
    }
  }
  if (znodes->Exists(meta::kMetaReplica)) {
    auto uids = znodes->GetChildren(meta::kMetaReplica);
    if (!uids.ok()) return uids.status();
    for (const std::string& uid : *uids) {
      auto data = znodes->Get(meta::ReplicaPath(uid));
      if (!data.ok()) return data.status();
      auto it = assignments_.find(uid);
      if (it == assignments_.end()) {
        // Replica set for a tablet that no longer exists (stale commit-point
        // race); garbage-collect the znode.
        (void)znodes->Delete(meta::ReplicaPath(uid));
        continue;
      }
      if (!meta::DecodeReplicaSet(Slice(*data), &it->second.replicas)) {
        return Status::Corruption("bad replica set metadata for " + uid);
      }
    }
  }
  return Status::OK();
}

std::vector<int> Master::LiveServers() const {
  std::vector<int> live;
  auto children = coord_->znodes()->GetChildren("/servers");
  if (!children.ok()) return live;
  for (const std::string& child : *children) {
    live.push_back(std::atoi(child.c_str()));
  }
  std::sort(live.begin(), live.end());
  return live;
}

int Master::PickServerForRange(const std::vector<int>& live,
                               const std::map<int, int>& planned) const {
  std::vector<balance::ServerLoad> candidates;
  candidates.reserve(live.size());
  for (int id : live) {
    balance::ServerLoad c;
    c.server_id = id;
    for (const auto& [uid, location] : assignments_) {
      if (location.server_id == id) c.tablet_count++;
    }
    auto it = planned.find(id);
    if (it != planned.end()) c.tablet_count += it->second;
    if (load_hint_) c.load_score = load_hint_(id);
    candidates.push_back(c);
  }
  return balance::PickLeastLoaded(candidates);
}

Status Master::AssignTablet(const tablet::TabletDescriptor& descriptor,
                            int server_id) {
  tablet::TabletServer* server = RunningServer(server_id);
  if (server == nullptr) return Status::Unavailable("assigned server is down");
  LOGBASE_RETURN_NOT_OK(server->OpenTablet(descriptor));
  assignments_[descriptor.uid()] = TabletLocation{descriptor, server_id};
  return PersistAssignmentLocked(assignments_[descriptor.uid()]);
}

Result<tablet::TableSchema> Master::CreateTable(
    const std::string& name, const std::vector<std::string>& columns,
    const std::vector<std::vector<std::string>>& column_groups,
    const std::vector<std::string>& split_keys) {
  MutexLock l(mu_);
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table exists: " + name);
  }
  std::vector<int> live = LiveServers();
  if (live.empty()) return Status::Unavailable("no live tablet servers");

  tablet::TableSchema schema;
  schema.id = next_table_id_++;
  schema.name = name;
  schema.columns = columns;
  uint32_t group_id = 0;
  for (const auto& group_columns : column_groups) {
    tablet::ColumnGroup group;
    group.id = group_id++;
    group.name = "cg" + std::to_string(group.id);
    group.columns = group_columns;
    schema.groups.push_back(std::move(group));
  }

  // Plan every range's server first — all column groups of one range
  // co-locate, so a placement consumes one slot per group. Planning against
  // current assignments plus planned placements spreads a new table across
  // the emptiest servers instead of round-robining.
  std::map<int, int> planned;
  std::vector<int> targets;
  for (uint32_t range = 0; range <= split_keys.size(); range++) {
    int target = PickServerForRange(live, planned);
    if (target < 0) return Status::Unavailable("no live tablet servers");
    targets.push_back(target);
    planned[target] += static_cast<int>(schema.groups.size());
  }

  // Range-partition each column group at the split keys.
  for (const tablet::ColumnGroup& group : schema.groups) {
    for (uint32_t range = 0; range <= split_keys.size(); range++) {
      tablet::TabletDescriptor d;
      d.table_id = schema.id;
      d.table_name = name;
      d.column_group = group.id;
      d.range_id = range;
      d.start_key = range == 0 ? "" : split_keys[range - 1];
      d.end_key = range == split_keys.size() ? "" : split_keys[range];
      LOGBASE_RETURN_NOT_OK(AssignTablet(d, targets[range]));
    }
  }

  tables_[name] = schema;
  split_keys_[name] = split_keys;
  LOGBASE_RETURN_NOT_OK(PersistTableLocked(name));
  LOGBASE_LOG(kInfo, "created table %s: %zu groups x %zu ranges",
              name.c_str(), schema.groups.size(), split_keys.size() + 1);
  return schema;
}

Status Master::AddColumnGroup(const std::string& table,
                              const std::vector<std::string>& columns) {
  MutexLock l(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(table);
  std::vector<int> live = LiveServers();
  if (live.empty()) return Status::Unavailable("no live tablet servers");

  tablet::TableSchema& schema = it->second;
  tablet::ColumnGroup group;
  group.id = schema.groups.empty() ? 0 : schema.groups.back().id + 1;
  group.name = "cg" + std::to_string(group.id);
  group.columns = columns;

  const std::vector<std::string>& splits = split_keys_[table];
  std::map<int, int> planned;
  for (uint32_t range = 0; range <= splits.size(); range++) {
    tablet::TabletDescriptor d;
    d.table_id = schema.id;
    d.table_name = table;
    d.column_group = group.id;
    d.range_id = range;
    d.start_key = range == 0 ? "" : splits[range - 1];
    d.end_key = range == splits.size() ? "" : splits[range];
    // Co-locate with the range's existing groups when any still live there
    // (entity-group clustering, §3.2); otherwise score a fresh placement.
    int target = -1;
    for (const auto& [uid, location] : assignments_) {
      const tablet::TabletDescriptor& ad = location.descriptor;
      if (ad.table_id == schema.id && ad.range_id == range &&
          ad.column_group != group.id &&
          std::find(live.begin(), live.end(), location.server_id) !=
              live.end()) {
        target = location.server_id;
        break;
      }
    }
    if (target < 0) target = PickServerForRange(live, planned);
    if (target < 0) return Status::Unavailable("no live tablet servers");
    planned[target]++;
    LOGBASE_RETURN_NOT_OK(AssignTablet(d, target));
  }
  schema.groups.push_back(std::move(group));
  schema.columns.insert(schema.columns.end(), columns.begin(), columns.end());
  return PersistTableLocked(table);
}

Result<tablet::TableSchema> Master::GetTable(const std::string& name) const {
  MutexLock l(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound(name);
  return it->second;
}

Result<TabletLocation> Master::Locate(const std::string& table,
                                      uint32_t column_group,
                                      const Slice& key) const {
  MutexLock l(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(table);
  // Containment scan, not split-key arithmetic: after a tablet split the
  // live ranges no longer correspond to the table's creation-time split
  // keys, so routing walks the assignment table for the covering range.
  const uint32_t table_id = it->second.id;
  for (const auto& [uid, location] : assignments_) {
    const tablet::TabletDescriptor& d = location.descriptor;
    if (d.table_id == table_id && d.column_group == column_group &&
        d.Contains(key)) {
      return location;
    }
  }
  return Status::NotFound("tablet not assigned: " + table + "/cg" +
                          std::to_string(column_group) + " for key " +
                          key.ToString());
}

Result<std::vector<TabletLocation>> Master::LocateAll(
    const std::string& table, uint32_t column_group) const {
  MutexLock l(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(table);
  std::vector<TabletLocation> locations;
  for (const auto& [uid, location] : assignments_) {
    if (location.descriptor.table_id == it->second.id &&
        location.descriptor.column_group == column_group) {
      locations.push_back(location);
    }
  }
  // Key order, not range-id order: split children carry fresh range ids but
  // must still come back in scan order ("" sorts first, so the unbounded
  // head range leads).
  std::sort(locations.begin(), locations.end(),
            [](const TabletLocation& a, const TabletLocation& b) {
              return a.descriptor.start_key < b.descriptor.start_key;
            });
  return locations;
}

Status Master::HandleServerFailure(int dead_server) {
  std::vector<int> live = LiveServers();
  live.erase(std::remove(live.begin(), live.end(), dead_server), live.end());
  if (live.empty()) return Status::Unavailable("no live servers to adopt");
  std::vector<std::string> orphans;
  {
    MutexLock l(mu_);
    for (const auto& [uid, location] : assignments_) {
      if (location.server_id == dead_server) orphans.push_back(uid);
    }
  }
  // One reassignment per tablet, from the dead server as source. Scatter by
  // load, not round-robin: each pick recounts assignments (the previous
  // reassignment already committed), so the dead server's tablets spread
  // across the least-loaded survivors.
  for (const std::string& uid : orphans) {
    TabletLocation child;
    {
      MutexLock l(mu_);
      auto it = assignments_.find(uid);
      if (it == assignments_.end() || it->second.server_id != dead_server) {
        continue;
      }
      child = TabletLocation{it->second.descriptor,
                             PickServerForRange(live, {})};
    }
    if (child.server_id < 0) {
      return Status::Unavailable("no live servers to adopt");
    }
    LOGBASE_RETURN_NOT_OK(
        Reassign(dead_server, child.descriptor, {child}, /*resume=*/false));
  }
  LOGBASE_LOG(kInfo, "master reassigned %zu tablets from dead server %d",
              orphans.size(), dead_server);
  return Status::OK();
}

Result<int> Master::DetectAndHandleFailures() {
  std::vector<int> dead;
  {
    MutexLock l(mu_);
    std::vector<int> live = LiveServers();
    for (const auto& [uid, location] : assignments_) {
      if (std::find(live.begin(), live.end(), location.server_id) ==
              live.end() &&
          std::find(dead.begin(), dead.end(), location.server_id) ==
              dead.end()) {
        dead.push_back(location.server_id);
      }
    }
  }
  for (int server : dead) {
    LOGBASE_RETURN_NOT_OK(HandleServerFailure(server));
  }
  return static_cast<int>(dead.size());
}

std::map<std::string, TabletLocation> Master::AssignmentsSnapshot() const {
  MutexLock l(mu_);
  return assignments_;
}

Result<TabletLocation> Master::GetAssignment(const std::string& uid) const {
  MutexLock l(mu_);
  auto it = assignments_.find(uid);
  if (it == assignments_.end()) {
    return Status::NotFound("tablet not assigned: " + uid);
  }
  return it->second;
}

void Master::set_load_hint(std::function<double(int)> hint) {
  MutexLock l(mu_);
  load_hint_ = std::move(hint);
}

Status Master::CommitReassignLocked(
    const std::string& parent_uid,
    const std::vector<TabletLocation>& children) {
  // The children's servers append to their own logs from here on: replicas
  // tailing the owner's log stream would silently stop seeing writes (and a
  // split parent's range is wrong for either child).
  DropReplicasLocked(parent_uid);
  for (const TabletLocation& child : children) {
    auto it = assignments_.find(child.descriptor.uid());
    if (it != assignments_.end() && it->second.server_id == child.server_id) {
      continue;
    }
    assignments_[child.descriptor.uid()] = child;
    LOGBASE_RETURN_NOT_OK(PersistAssignmentLocked(child));
  }
  if (!RetiresParent(parent_uid, children) ||
      assignments_.erase(parent_uid) == 0) {
    return Status::OK();
  }
  coord_->ChargeRoundTrip(node_);
  return coord_->znodes()->Delete(meta::AssignPath(parent_uid));
}

Result<std::vector<uint32_t>> Master::AllocateRangeIds(uint32_t table_id,
                                                       uint32_t column_group,
                                                       int count) {
  MutexLock l(mu_);
  uint32_t next = 0;
  for (const auto& [uid, location] : assignments_) {
    const tablet::TabletDescriptor& d = location.descriptor;
    if (d.table_id == table_id && d.column_group == column_group &&
        d.range_id >= next) {
      next = d.range_id + 1;
    }
  }
  std::vector<uint32_t> ids;
  for (int i = 0; i < count; i++) {
    if (next >= (1u << 20)) {
      return Status::InvalidArgument("range id space exhausted");
    }
    ids.push_back(next++);
  }
  return ids;
}

void Master::SetReplicaFleet(
    std::vector<int> replica_ids,
    std::function<replica::ReplicaServer*(int)> resolver) {
  MutexLock l(mu_);
  replica_ids_ = std::move(replica_ids);
  replica_resolver_ = std::move(resolver);
}

Result<int> Master::AddReplica(const std::string& uid) {
  MutexLock l(mu_);
  if (!promoted_) return Status::Unavailable("not the active master");
  auto it = assignments_.find(uid);
  if (it == assignments_.end()) {
    return Status::NotFound("tablet not assigned: " + uid);
  }
  TabletLocation& location = it->second;
  if (RunningServer(location.server_id) == nullptr) {
    return Status::Unavailable("tablet owner is down");
  }

  // Least-loaded placement over running replicas not already serving this
  // tablet — the same scoring tablet placement uses, over the replica fleet.
  std::vector<balance::ServerLoad> candidates;
  for (int replica_id : replica_ids_) {
    if (std::find(location.replicas.begin(), location.replicas.end(),
                  replica_id) != location.replicas.end()) {
      continue;
    }
    replica::ReplicaServer* rep = ResolveReplicaLocked(replica_id);
    if (rep == nullptr || !rep->running()) continue;
    balance::ServerLoad c;
    c.server_id = replica_id;
    c.tablet_count = rep->NumTablets();
    candidates.push_back(c);
  }
  int chosen = balance::PickLeastLoaded(candidates);
  if (chosen < 0) return Status::Unavailable("no replica available for " + uid);

  replica::ReplicaServer* rep = ResolveReplicaLocked(chosen);
  LOGBASE_RETURN_NOT_OK(rep->AddTablet(
      location.descriptor, static_cast<uint32_t>(location.server_id)));
  location.replicas.push_back(chosen);
  LOGBASE_RETURN_NOT_OK(PersistReplicaSetLocked(uid));
  LOGBASE_LOG(kInfo, "master %d attached replica %d to %s", node_, chosen,
              uid.c_str());
  return chosen;
}

Status Master::DropReplicas(const std::string& uid) {
  MutexLock l(mu_);
  if (!promoted_) return Status::Unavailable("not the active master");
  if (assignments_.count(uid) == 0) {
    return Status::NotFound("tablet not assigned: " + uid);
  }
  DropReplicasLocked(uid);
  return Status::OK();
}

Status Master::ReseedReplica(int replica_id) {
  MutexLock l(mu_);
  if (!promoted_) return Status::Unavailable("not the active master");
  replica::ReplicaServer* rep = ResolveReplicaLocked(replica_id);
  if (rep == nullptr || !rep->running()) {
    return Status::Unavailable("replica is down");
  }
  int reseeded = 0;
  for (const auto& [uid, location] : assignments_) {
    if (std::find(location.replicas.begin(), location.replicas.end(),
                  replica_id) == location.replicas.end()) {
      continue;
    }
    if (RunningServer(location.server_id) == nullptr) continue;
    LOGBASE_RETURN_NOT_OK(rep->AddTablet(
        location.descriptor, static_cast<uint32_t>(location.server_id)));
    reseeded++;
  }
  LOGBASE_LOG(kInfo, "master %d reseeded %d tablets on replica %d", node_,
              reseeded, replica_id);
  return Status::OK();
}

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

void Master::set_step_hook(std::function<void(MigrationStep)> hook) {
  MutexLock l(mu_);
  step_hook_ = std::move(hook);
}

Status Master::AfterStep(MigrationStep step) {
  std::function<void(MigrationStep)> hook;
  {
    MutexLock l(mu_);
    hook = step_hook_;
  }
  if (hook) hook(step);
  if (!IsActiveMaster()) {
    return Status::Unavailable(
        std::string("master lost leadership after step ") +
        MigrationStepName(step));
  }
  return Status::OK();
}

tablet::TabletServer* Master::RunningServer(int server_id) const {
  tablet::TabletServer* server = server_resolver_(server_id);
  return server != nullptr && server->running() ? server : nullptr;
}

Status Master::MigrateTablet(const std::string& uid, int to) {
  if (!IsActiveMaster()) return Status::Unavailable("not the active master");
  auto loc = GetAssignment(uid);
  if (!loc.ok()) return loc.status();
  if (loc->server_id == to) {
    return Status::InvalidArgument("tablet already on target");
  }
  if (RunningServer(loc->server_id) == nullptr) {
    return Status::Unavailable("reassignment source is down");
  }
  return Reassign(loc->server_id, loc->descriptor,
                  {TabletLocation{loc->descriptor, to}}, /*resume=*/false);
}

Status Master::SplitTablet(const std::string& uid,
                           const std::string& split_key, int right_server) {
  if (!IsActiveMaster()) return Status::Unavailable("not the active master");
  auto loc = GetAssignment(uid);
  if (!loc.ok()) return loc.status();
  const tablet::TabletDescriptor& parent = loc->descriptor;
  if (!parent.Contains(Slice(split_key)) || split_key == parent.start_key) {
    return Status::InvalidArgument("split key not interior to " + uid);
  }
  if (RunningServer(loc->server_id) == nullptr) {
    return Status::Unavailable("reassignment source is down");
  }
  // Children take fresh range ids: reusing the parent's uid would route
  // stale-cached clients at the wrong half and collide checkpoint files.
  auto ids = AllocateRangeIds(parent.table_id, parent.column_group, 2);
  if (!ids.ok()) return ids.status();
  TabletLocation left{parent, loc->server_id};
  left.descriptor.range_id = (*ids)[0];
  left.descriptor.end_key = split_key;
  TabletLocation right{parent, right_server};
  right.descriptor.range_id = (*ids)[1];
  right.descriptor.start_key = split_key;
  return Reassign(loc->server_id, parent, {left, right}, /*resume=*/false);
}

Status Master::Reassign(int owner, const tablet::TabletDescriptor& parent,
                        const std::vector<TabletLocation>& children,
                        bool resume) {
  const std::string parent_uid = parent.uid();
  // nullptr when down: a dead source is failure adoption.
  tablet::TabletServer* src = RunningServer(owner);
  // Each child's server (nullptr when down), and the distinct running ones
  // in child order: those are the servers whose recovery metadata must name
  // the children.
  std::vector<tablet::TabletServer*> dst;
  std::vector<tablet::TabletServer*> dst_servers;
  for (const TabletLocation& child : children) {
    tablet::TabletServer* server = RunningServer(child.server_id);
    if (server == nullptr && !resume) {
      return Status::Unavailable("reassignment target is down");
    }
    dst.push_back(server);
    if (server != nullptr && std::find(dst_servers.begin(), dst_servers.end(),
                                       server) == dst_servers.end()) {
      dst_servers.push_back(server);
    }
  }

  coord::ZnodeTree* znodes = coord_->znodes();
  const std::string path = meta::ReassignPath(parent_uid);
  // Errors before the commit roll back inline while this master still
  // leads; a successor repeats the same rollback from the intent. A resumed
  // reassignment is committed already: its intent stays for the next try.
  auto fail = [&](const Status& s) -> Status {
    if (!resume) RollBackReassign(owner, parent_uid, children);
    return s;
  };
  Status s;
  if (!resume) {
    LOGBASE_RETURN_NOT_OK(
        EnsureZnodes(znodes, session_, {kMetaRoot, meta::kMetaReassign}));
    if (znodes->Exists(path)) {
      return Status::Busy("reassignment already in flight: " + parent_uid);
    }

    // Step 1: durable intent. A master promoted mid-protocol decides from
    // this intent + the persisted assignments whether to roll forward or
    // back.
    std::string intent = meta::EncodeReassignIntent(owner, parent, children);
    coord_->ChargeRoundTrip(node_, intent.size());
    auto created = znodes->Create(session_, path, intent,
                                  coord::CreateMode::kPersistent);
    if (!created.ok()) return created.status();
    LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kIntentPersisted));

    // A dead source acks no more writes and wrote its last checkpoint
    // before it died, so steps 2-3 run only on a running one.
    if (src != nullptr) {
      // Step 2: fence the parent. No write can be acked past this point, so
      // the checkpoint + tail the children read below is complete.
      s = src->SealTablet(parent_uid);
      if (!s.ok()) return fail(s);
      LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kSourceSealed));

      // Step 3: flush the owner's index checkpoint; it bounds each child's
      // replay to the log tail written since.
      s = src->Checkpoint();
      if (!s.ok()) return fail(s);
      LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kCheckpointFlushed));
    }
  }

  // Step 4: each child's server rebuilds the child's index from the owner's
  // checkpoint + tail, filtered to the child's range, then checkpoints
  // itself before the commit — its own recovery metadata must name the
  // child (with pointers into the owner's log), or a later failure of that
  // server would lose the child's history.
  // The owner's checkpoint is read once and seeds every child.
  tablet::RecoveryStats stats;
  tablet::CheckpointCache checkpoints;
  std::vector<tablet::TabletServer*> adopters;
  for (size_t i = 0; i < children.size(); i++) {
    if (dst[i] == nullptr ||
        dst[i]->FindTablet(children[i].descriptor.uid()) != nullptr) {
      continue;
    }
    s = dst[i]->AdoptTablet(children[i].descriptor,
                            static_cast<uint32_t>(owner), &stats,
                            &checkpoints);
    if (!s.ok()) return fail(s);
    if (std::find(adopters.begin(), adopters.end(), dst[i]) ==
        adopters.end()) {
      adopters.push_back(dst[i]);
    }
  }
  for (tablet::TabletServer* server : adopters) {
    s = server->Checkpoint();
    if (!s.ok()) return fail(s);
  }
  LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kDestAdopted));

  // Step 5: commit point — persist the children's assignments.
  {
    MutexLock l(mu_);
    s = CommitReassignLocked(parent_uid, children);
  }
  if (!s.ok()) return fail(s);
  // Committed; a successor rolls forward from here.
  LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kAssignmentFlipped));

  // Steps 6-7: release the parent and clear the intent. Failures here are
  // finished by the next promote's reconcile.
  if (src != nullptr) {
    (void)src->CloseTablet(parent_uid);
    LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kSourceClosed));
  }
  if (RetiresParent(parent_uid, children)) {
    // Re-checkpoint every involved server: its recovery metadata must name
    // the children, not the parent, or a restart resurrects the parent
    // alongside them.
    if (src != nullptr) (void)src->Checkpoint();
    for (tablet::TabletServer* server : dst_servers) {
      if (server != src) (void)server->Checkpoint();
    }
  }
  coord_->ChargeRoundTrip(node_);
  (void)znodes->Delete(path);
  LOGBASE_RETURN_NOT_OK(AfterStep(MigrationStep::kIntentCleared));

  LOGBASE_LOG(kInfo,
              "reassigned tablet %s on server %d to %zu children (%llu "
              "checkpoint entries, %llu redo records)",
              parent_uid.c_str(), owner, children.size(),
              static_cast<unsigned long long>(stats.checkpoint_entries),
              static_cast<unsigned long long>(stats.redo_records));
  return Status::OK();
}

void Master::RollBackReassign(
    int owner, const std::string& parent_uid,
    const std::vector<TabletLocation>& children) const {
  for (const TabletLocation& child : children) {
    tablet::TabletServer* server = RunningServer(child.server_id);
    if (server != nullptr) (void)server->CloseTablet(child.descriptor.uid());
  }
  tablet::TabletServer* src = RunningServer(owner);
  if (src != nullptr) (void)src->UnsealTablet(parent_uid);
  (void)coord_->znodes()->Delete(meta::ReassignPath(parent_uid));
}

Status Master::ReconcileIntents() {
  coord::ZnodeTree* znodes = coord_->znodes();
  if (!znodes->Exists(meta::kMetaReassign)) return Status::OK();
  auto uids = znodes->GetChildren(meta::kMetaReassign);
  if (!uids.ok()) return uids.status();
  for (const std::string& uid : *uids) {
    const std::string path = meta::ReassignPath(uid);
    auto data = znodes->Get(path);
    if (!data.ok()) continue;
    int owner = -1;
    tablet::TabletDescriptor parent;
    std::vector<TabletLocation> children;
    if (!meta::DecodeReassignIntent(Slice(*data), &owner, &parent,
                                    &children)) {
      (void)znodes->Delete(path);
      continue;
    }
    // The commit point is the persisted flip: committed iff some child's
    // assignment already names that child's server.
    bool committed = false;
    {
      MutexLock l(mu_);
      for (const TabletLocation& child : children) {
        auto it = assignments_.find(child.descriptor.uid());
        if (it != assignments_.end() &&
            it->second.server_id == child.server_id) {
          committed = true;
        }
      }
    }
    // Roll forward by resuming the routine at its adopt step; otherwise the
    // parent resumes on its owner. Dead endpoints are skipped either way and
    // left to DetectAndHandleFailures.
    if (committed) {
      LOGBASE_RETURN_NOT_OK(Reassign(owner, parent, children, /*resume=*/true));
    } else {
      RollBackReassign(owner, uid, children);
    }
    LOGBASE_LOG(kInfo, "master %d rolled reassignment of %s %s", node_,
                uid.c_str(), committed ? "forward" : "back");
  }
  return Status::OK();
}

}  // namespace logbase::master

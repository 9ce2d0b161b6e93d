#include "src/master/master.h"

#include <algorithm>

#include "src/balance/placement.h"
#include "src/master/meta_codec.h"
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
  if (!running() || election_ == nullptr || !election_->IsLeader()) {
    return false;
  }
  MutexLock l(mu_);
  if (promoted_) return true;
  LOGBASE_RETURN_NOT_OK(RecoverMetadataLocked());
  LOGBASE_RETURN_NOT_OK(ReconcileIntentsLocked());
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
  tablet::TabletServer* server = server_resolver_(server_id);
  if (server == nullptr || !server->running()) {
    return Status::Unavailable("assigned server is down");
  }
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
  MutexLock l(mu_);
  std::vector<int> live = LiveServers();
  live.erase(std::remove(live.begin(), live.end(), dead_server), live.end());
  if (live.empty()) return Status::Unavailable("no live servers to adopt");

  // Scatter by load, not round-robin: each pick recounts assignments (the
  // previous adoptions already flipped server_id in place), so the dead
  // server's tablets spread across the least-loaded survivors.
  int adopted = 0;
  std::vector<int> targets;
  for (auto& [uid, location] : assignments_) {
    if (location.server_id != dead_server) continue;
    // The adopter starts appending the tablet's history to its own log, so
    // every replica's tail cursor (pinned to the dead server's log) is
    // stale. Detach them; callers re-attach against the new owner.
    DropReplicasLocked(uid);
    int target_id = PickServerForRange(live, {});
    if (target_id < 0) return Status::Unavailable("no live servers to adopt");
    tablet::TabletServer* target = server_resolver_(target_id);
    if (target == nullptr || !target->running()) {
      return Status::Unavailable("adoption target is down");
    }
    LOGBASE_RETURN_NOT_OK(
        target->AdoptTablet(location.descriptor, dead_server));
    location.server_id = target_id;
    LOGBASE_RETURN_NOT_OK(PersistAssignmentLocked(location));
    if (std::find(targets.begin(), targets.end(), target_id) ==
        targets.end()) {
      targets.push_back(target_id);
    }
    adopted++;
  }
  // Adopters checkpoint right away: their recovery metadata must name the
  // adopted tablets (whose history lives in the dead server's log) or a
  // second failure on the adopter would lose them.
  for (int target_id : targets) {
    tablet::TabletServer* target = server_resolver_(target_id);
    if (target != nullptr && target->running()) {
      LOGBASE_RETURN_NOT_OK(target->Checkpoint());
    }
  }
  LOGBASE_LOG(kInfo, "master reassigned %d tablets from dead server %d",
              adopted, dead_server);
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

Status Master::CommitReassign(const std::string& parent_uid,
                              const std::vector<TabletLocation>& children) {
  MutexLock l(mu_);
  if (!promoted_) return Status::Unavailable("not the active master");
  if (assignments_.count(parent_uid) == 0) {
    return Status::NotFound("tablet not assigned: " + parent_uid);
  }
  return CommitReassignLocked(parent_uid, children);
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
  tablet::TabletServer* owner = server_resolver_(location.server_id);
  if (owner == nullptr || !owner->running()) {
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
    tablet::TabletServer* owner = server_resolver_(location.server_id);
    if (owner == nullptr || !owner->running()) continue;
    LOGBASE_RETURN_NOT_OK(rep->AddTablet(
        location.descriptor, static_cast<uint32_t>(location.server_id)));
    reseeded++;
  }
  LOGBASE_LOG(kInfo, "master %d reseeded %d tablets on replica %d", node_,
              reseeded, replica_id);
  return Status::OK();
}

Status Master::ReconcileIntentsLocked() {
  coord::ZnodeTree* znodes = coord_->znodes();
  if (!znodes->Exists(meta::kMetaReassign)) return Status::OK();
  auto uids = znodes->GetChildren(meta::kMetaReassign);
  if (!uids.ok()) return uids.status();
  // Dead endpoints are skipped here and left to DetectAndHandleFailures.
  auto up = [this](int server_id) -> tablet::TabletServer* {
    tablet::TabletServer* server = server_resolver_(server_id);
    return server != nullptr && server->running() ? server : nullptr;
  };
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
    for (const TabletLocation& child : children) {
      auto it = assignments_.find(child.descriptor.uid());
      if (it != assignments_.end() && it->second.server_id == child.server_id) {
        committed = true;
      }
    }
    tablet::TabletServer* owner_srv = up(owner);
    if (committed) {
      // Roll forward: finish the commit, adopt children a crash left
      // unbuilt, release the parent, then checkpoint every server whose
      // recovery metadata changed (adopters; all involved when the parent
      // is retired).
      LOGBASE_RETURN_NOT_OK(CommitReassignLocked(uid, children));
      std::vector<tablet::TabletServer*> stale;
      auto mark = [&stale](tablet::TabletServer* srv) {
        if (srv != nullptr &&
            std::find(stale.begin(), stale.end(), srv) == stale.end()) {
          stale.push_back(srv);
        }
      };
      for (const TabletLocation& child : children) {
        const std::string child_uid = child.descriptor.uid();
        tablet::TabletServer* srv = up(child.server_id);
        if (srv == nullptr || srv->FindTablet(child_uid) != nullptr) continue;
        LOGBASE_RETURN_NOT_OK(
            srv->AdoptTablet(child.descriptor, static_cast<uint32_t>(owner)));
        mark(srv);
      }
      if (owner_srv != nullptr) (void)owner_srv->CloseTablet(uid);
      if (RetiresParent(uid, children)) {
        mark(owner_srv);
        for (const TabletLocation& child : children) mark(up(child.server_id));
      }
      for (tablet::TabletServer* srv : stale) {
        LOGBASE_RETURN_NOT_OK(srv->Checkpoint());
      }
    } else {
      // Roll back: drop every child copy, the parent resumes on its owner.
      for (const TabletLocation& child : children) {
        tablet::TabletServer* srv = up(child.server_id);
        if (srv != nullptr) (void)srv->CloseTablet(child.descriptor.uid());
      }
      if (owner_srv != nullptr) (void)owner_srv->UnsealTablet(uid);
    }
    (void)znodes->Delete(path);
    LOGBASE_LOG(kInfo, "master %d rolled reassignment of %s %s", node_,
                uid.c_str(), committed ? "forward" : "back");
  }
  return Status::OK();
}

}  // namespace logbase::master

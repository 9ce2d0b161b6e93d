// Wire format for the master metadata persisted in coordination-service
// znodes: table schemas + split keys under /meta/tables/<name>, tablet
// assignments under /meta/assign/<uid>, in-flight reassignment intents under
// /meta/reassign/<parent uid>, replica sets under /meta/replica/<uid>.
// Shared between the master (writes and recovers it), the migration
// coordinator (writes intents) and the tablet server (reads assignments on
// restart to fence itself off tablets that were adopted elsewhere while it
// was down).

#ifndef LOGBASE_MASTER_META_CODEC_H_
#define LOGBASE_MASTER_META_CODEC_H_

#include <string>
#include <vector>

#include "src/tablet/schema.h"
#include "src/util/slice.h"

namespace logbase::master {

/// Where a tablet lives: its descriptor and the owning tablet server. The
/// assignment znode persists both; the replica set is persisted separately.
struct TabletLocation {
  tablet::TabletDescriptor descriptor;
  int server_id = -1;
  /// Read replicas serving bounded-staleness snapshot reads of this tablet
  /// (replica ids, not server ids). Torn down on migration/split/failure —
  /// the replicas' log cursors point at the old owner's log.
  std::vector<int> replicas = {};
};

namespace meta {

inline constexpr const char* kMetaRoot = "/meta";
inline constexpr const char* kMetaTables = "/meta/tables";
inline constexpr const char* kMetaAssign = "/meta/assign";
/// In-flight reassignment intents (src/balance/), one per parent tablet: a
/// migration or a split. Written before any step mutates server or
/// assignment state; deleted after the protocol completes. A freshly
/// promoted master rolls each surviving intent forward or back depending on
/// whether a child's assignment was persisted.
inline constexpr const char* kMetaReassign = "/meta/reassign";
/// Read-replica attachments per tablet: the set of replica ids serving
/// snapshot reads for /meta/replica/<uid>. Soft-state hint only — a replica
/// that lost its in-memory index is simply re-seeded — but persisted so a
/// failed-over master keeps routing stale reads without a fleet rebuild.
inline constexpr const char* kMetaReplica = "/meta/replica";

inline std::string TablePath(const std::string& name) {
  return std::string(kMetaTables) + "/" + name;
}
inline std::string AssignPath(const std::string& uid) {
  return std::string(kMetaAssign) + "/" + uid;
}
inline std::string ReassignPath(const std::string& parent_uid) {
  return std::string(kMetaReassign) + "/" + parent_uid;
}
inline std::string ReplicaPath(const std::string& uid) {
  return std::string(kMetaReplica) + "/" + uid;
}

std::string EncodeTableMeta(const tablet::TableSchema& schema,
                            const std::vector<std::string>& splits);
bool DecodeTableMeta(Slice in, tablet::TableSchema* schema,
                     std::vector<std::string>* splits);

std::string EncodeAssignment(int server_id,
                             const tablet::TabletDescriptor& descriptor);
bool DecodeAssignment(Slice in, int* server_id,
                      tablet::TabletDescriptor* descriptor);

/// A reassignment intent: `parent`, hosted by `owner`, is replaced by
/// `children` (descriptor + server each; replica sets are not encoded). A
/// migration is one child with the parent's descriptor on another server; a
/// split is two children with fresh range ids.
std::string EncodeReassignIntent(int owner,
                                 const tablet::TabletDescriptor& parent,
                                 const std::vector<TabletLocation>& children);
bool DecodeReassignIntent(Slice in, int* owner,
                          tablet::TabletDescriptor* parent,
                          std::vector<TabletLocation>* children);

/// The replica ids attached to one tablet.
std::string EncodeReplicaSet(const std::vector<int>& replica_ids);
bool DecodeReplicaSet(Slice in, std::vector<int>* replica_ids);

}  // namespace meta
}  // namespace logbase::master

#endif  // LOGBASE_MASTER_META_CODEC_H_

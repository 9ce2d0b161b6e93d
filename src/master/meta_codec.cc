#include "src/master/meta_codec.h"

#include "src/util/coding.h"

namespace logbase::master::meta {

namespace {

void EncodeStringVec(std::string* dst, const std::vector<std::string>& v) {
  PutVarint32(dst, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) PutLengthPrefixedSlice(dst, Slice(s));
}

bool DecodeStringVec(Slice* in, std::vector<std::string>* v) {
  uint32_t n;
  if (!GetVarint32(in, &n)) return false;
  v->clear();
  for (uint32_t i = 0; i < n; i++) {
    Slice s;
    if (!GetLengthPrefixedSlice(in, &s)) return false;
    v->push_back(s.ToString());
  }
  return true;
}

void EncodeDescriptor(std::string* out, const tablet::TabletDescriptor& d) {
  PutVarint32(out, d.table_id);
  PutLengthPrefixedSlice(out, Slice(d.table_name));
  PutVarint32(out, d.column_group);
  PutVarint32(out, d.range_id);
  PutLengthPrefixedSlice(out, Slice(d.start_key));
  PutLengthPrefixedSlice(out, Slice(d.end_key));
}

bool DecodeDescriptor(Slice* in, tablet::TabletDescriptor* d) {
  Slice table_name, start_key, end_key;
  if (!GetVarint32(in, &d->table_id)) return false;
  if (!GetLengthPrefixedSlice(in, &table_name)) return false;
  d->table_name = table_name.ToString();
  if (!GetVarint32(in, &d->column_group)) return false;
  if (!GetVarint32(in, &d->range_id)) return false;
  if (!GetLengthPrefixedSlice(in, &start_key)) return false;
  d->start_key = start_key.ToString();
  if (!GetLengthPrefixedSlice(in, &end_key)) return false;
  d->end_key = end_key.ToString();
  return true;
}

bool DecodeServer(Slice* in, int* server_id) {
  uint32_t server;
  if (!GetVarint32(in, &server)) return false;
  *server_id = static_cast<int>(server);
  return true;
}

}  // namespace

std::string EncodeTableMeta(const tablet::TableSchema& schema,
                            const std::vector<std::string>& splits) {
  std::string out;
  PutVarint32(&out, schema.id);
  PutLengthPrefixedSlice(&out, Slice(schema.name));
  EncodeStringVec(&out, schema.columns);
  PutVarint32(&out, static_cast<uint32_t>(schema.groups.size()));
  for (const tablet::ColumnGroup& g : schema.groups) {
    PutVarint32(&out, g.id);
    PutLengthPrefixedSlice(&out, Slice(g.name));
    EncodeStringVec(&out, g.columns);
  }
  EncodeStringVec(&out, splits);
  return out;
}

bool DecodeTableMeta(Slice in, tablet::TableSchema* schema,
                     std::vector<std::string>* splits) {
  Slice name;
  if (!GetVarint32(&in, &schema->id)) return false;
  if (!GetLengthPrefixedSlice(&in, &name)) return false;
  schema->name = name.ToString();
  if (!DecodeStringVec(&in, &schema->columns)) return false;
  uint32_t groups;
  if (!GetVarint32(&in, &groups)) return false;
  schema->groups.clear();
  for (uint32_t i = 0; i < groups; i++) {
    tablet::ColumnGroup g;
    Slice group_name;
    if (!GetVarint32(&in, &g.id)) return false;
    if (!GetLengthPrefixedSlice(&in, &group_name)) return false;
    g.name = group_name.ToString();
    if (!DecodeStringVec(&in, &g.columns)) return false;
    schema->groups.push_back(std::move(g));
  }
  return DecodeStringVec(&in, splits);
}

std::string EncodeAssignment(int server_id,
                             const tablet::TabletDescriptor& d) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(server_id));
  EncodeDescriptor(&out, d);
  return out;
}

bool DecodeAssignment(Slice in, int* server_id,
                      tablet::TabletDescriptor* d) {
  return DecodeServer(&in, server_id) && DecodeDescriptor(&in, d);
}

std::string EncodeReassignIntent(int owner,
                                 const tablet::TabletDescriptor& parent,
                                 const std::vector<TabletLocation>& children) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(owner));
  EncodeDescriptor(&out, parent);
  PutVarint32(&out, static_cast<uint32_t>(children.size()));
  for (const TabletLocation& child : children) {
    PutVarint32(&out, static_cast<uint32_t>(child.server_id));
    EncodeDescriptor(&out, child.descriptor);
  }
  return out;
}

bool DecodeReassignIntent(Slice in, int* owner,
                          tablet::TabletDescriptor* parent,
                          std::vector<TabletLocation>* children) {
  uint32_t n;
  if (!DecodeServer(&in, owner) || !DecodeDescriptor(&in, parent) ||
      !GetVarint32(&in, &n)) {
    return false;
  }
  children->clear();
  for (uint32_t i = 0; i < n; i++) {
    TabletLocation child;
    if (!DecodeServer(&in, &child.server_id) ||
        !DecodeDescriptor(&in, &child.descriptor)) {
      return false;
    }
    children->push_back(std::move(child));
  }
  return true;
}

std::string EncodeReplicaSet(const std::vector<int>& replica_ids) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(replica_ids.size()));
  for (int id : replica_ids) PutVarint32(&out, static_cast<uint32_t>(id));
  return out;
}

bool DecodeReplicaSet(Slice in, std::vector<int>* replica_ids) {
  uint32_t n;
  if (!GetVarint32(&in, &n)) return false;
  replica_ids->clear();
  for (uint32_t i = 0; i < n; i++) {
    uint32_t id;
    if (!GetVarint32(&in, &id)) return false;
    replica_ids->push_back(static_cast<int>(id));
  }
  return true;
}

}  // namespace logbase::master::meta

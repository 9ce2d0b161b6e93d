// Checkpointing (paper §3.8): the tablet server persists every tablet's
// in-memory index into a DFS index file plus a checkpoint block holding the
// log position / LSN whose effects those files already contain. Recovery
// reloads the files and redoes only the log tail after the position.

#include "src/tablet/checkpoint_internal.h"

#include "src/index/index_checkpoint.h"
#include "src/tablet/tablet_server.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace logbase::tablet {

namespace checkpoint_internal {

std::string MetaPath(const std::string& dir) { return dir + "/CHECKPOINT"; }

std::string IndexFilePath(const std::string& dir, const std::string& uid) {
  return dir + "/" + uid + ".idx";
}

void EncodeDescriptor(std::string* out, const TabletDescriptor& d,
                      uint32_t source_instance) {
  PutFixed32(out, d.table_id);
  PutLengthPrefixedSlice(out, Slice(d.table_name));
  PutFixed32(out, d.column_group);
  PutFixed32(out, d.range_id);
  PutLengthPrefixedSlice(out, Slice(d.start_key));
  PutLengthPrefixedSlice(out, Slice(d.end_key));
  PutFixed32(out, source_instance);
}

bool DecodeDescriptor(Slice* in, TabletDescriptor* d,
                      uint32_t* source_instance) {
  Slice name, start, end;
  if (!GetFixed32(in, &d->table_id) ||
      !GetLengthPrefixedSlice(in, &name) ||
      !GetFixed32(in, &d->column_group) || !GetFixed32(in, &d->range_id) ||
      !GetLengthPrefixedSlice(in, &start) ||
      !GetLengthPrefixedSlice(in, &end) || !GetFixed32(in, source_instance)) {
    return false;
  }
  d->table_name = name.ToString();
  d->start_key = start.ToString();
  d->end_key = end.ToString();
  return true;
}

Status LoadMeta(FileSystem* fs, const std::string& dir, CheckpointMeta* meta) {
  auto file = fs->NewRandomAccessFile(MetaPath(dir));
  if (!file.ok()) return file.status();
  auto contents = (*file)->Read(0, (*file)->Size());
  if (!contents.ok()) return contents.status();
  if (contents->size() < 4) return Status::Corruption("checkpoint too short");

  uint32_t stored =
      crc32c::Unmask(DecodeFixed32(contents->data() + contents->size() - 4));
  if (stored != crc32c::Value(contents->data(), contents->size() - 4)) {
    return Status::Corruption("checkpoint checksum mismatch");
  }
  Slice in(contents->data(), contents->size() - 4);
  uint64_t magic;
  uint32_t count;
  if (!GetFixed64(&in, &magic) || magic != kCheckpointMagic ||
      !GetFixed32(&in, &meta->position.segment) ||
      !GetFixed64(&in, &meta->position.offset) ||
      !GetFixed64(&in, &meta->next_lsn) || !GetFixed32(&in, &count)) {
    return Status::Corruption("bad checkpoint header");
  }
  for (uint32_t i = 0; i < count; i++) {
    TabletDescriptor d;
    uint32_t source;
    if (!DecodeDescriptor(&in, &d, &source)) {
      return Status::Corruption("bad checkpoint tablet entry");
    }
    meta->tablets.emplace_back(std::move(d), source);
  }
  return Status::OK();
}

Result<CheckpointSeed> SeedFromCheckpoint(FileSystem* fs,
                                          const std::string& dir,
                                          const TabletDescriptor& descriptor,
                                          index::MultiVersionIndex* index) {
  CheckpointSeed seed;
  if (!fs->Exists(MetaPath(dir))) return seed;
  CheckpointMeta meta;
  LOGBASE_RETURN_NOT_OK(LoadMeta(fs, dir, &meta));
  for (const auto& [d, source] : meta.tablets) {
    if (!d.Overlaps(descriptor)) continue;
    std::string idx_path = IndexFilePath(dir, d.uid());
    if (!fs->Exists(idx_path)) continue;
    uint64_t before = index->num_entries();
    LOGBASE_RETURN_NOT_OK(index::LoadIndexCheckpointFiltered(
        fs, idx_path, index, [&descriptor](const Slice& key) {
          return descriptor.Contains(key);
        }));
    seed.loaded = true;
    seed.start = meta.position;
    seed.entries += index->num_entries() - before;
  }
  return seed;
}

}  // namespace checkpoint_internal

Status WriteServerCheckpoint(TabletServer* server) {
  namespace ci = checkpoint_internal;
  FileSystem* fs = server->fs_.get();
  const std::string dir = server->checkpoint_dir();

  // Capture the position FIRST: index entries created after it will simply
  // be redone on recovery (redo is an idempotent upsert). Flush drains any
  // open group-commit batch so the position covers every acked write.
  LOGBASE_RETURN_NOT_OK(server->writer_->Flush());
  log::LogPosition position = server->writer_->Position();
  uint64_t next_lsn = server->writer_->next_lsn();

  std::vector<std::pair<TabletDescriptor, uint32_t>> descriptors;
  {
    MutexLock l(server->tablets_mu_);
    for (auto& [uid, tablet] : server->tablets_) {
      descriptors.emplace_back(tablet->descriptor(),
                               tablet->source_instance());
      std::string path = ci::IndexFilePath(dir, uid);
      std::string tmp = path + ".tmp";
      LOGBASE_RETURN_NOT_OK(
          index::WriteIndexCheckpoint(fs, tmp, *tablet->index()));
      LOGBASE_RETURN_NOT_OK(fs->Rename(tmp, path));
    }
  }

  std::string meta;
  PutFixed64(&meta, ci::kCheckpointMagic);
  PutFixed32(&meta, position.segment);
  PutFixed64(&meta, position.offset);
  PutFixed64(&meta, next_lsn);
  PutFixed32(&meta, static_cast<uint32_t>(descriptors.size()));
  for (const auto& [descriptor, source] : descriptors) {
    ci::EncodeDescriptor(&meta, descriptor, source);
  }
  PutFixed32(&meta, crc32c::Mask(crc32c::Value(meta.data(), meta.size())));

  std::string tmp = ci::MetaPath(dir) + ".tmp";
  auto file = fs->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  LOGBASE_RETURN_NOT_OK((*file)->Append(Slice(meta)));
  LOGBASE_RETURN_NOT_OK((*file)->Sync());
  LOGBASE_RETURN_NOT_OK((*file)->Close());
  LOGBASE_RETURN_NOT_OK(fs->Rename(tmp, ci::MetaPath(dir)));
  LOGBASE_LOG(kDebug, "server %d checkpoint at segment %u offset %llu",
              server->server_id(), position.segment,
              static_cast<unsigned long long>(position.offset));
  return Status::OK();
}

}  // namespace logbase::tablet

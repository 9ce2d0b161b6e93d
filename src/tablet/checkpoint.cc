// Checkpointing (paper §3.8): the tablet server persists every hosted
// tablet's in-memory index, together with the log position / LSN whose
// effects those indexes already contain, as one DFS file. Recovery reloads
// the file and redoes only the log tail after the position.

#include "src/tablet/checkpoint_internal.h"

#include "src/index/index_checkpoint.h"
#include "src/tablet/tablet_server.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"

namespace logbase::tablet {

namespace checkpoint_internal {

namespace {

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

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return dir + "/CHECKPOINT";
}

Status LoadCheckpoint(FileSystem* fs, const std::string& dir,
                      CheckpointMeta* meta) {
  const std::string path = CheckpointPath(dir);
  if (!fs->Exists(path)) return Status::NotFound(path);
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  auto contents = (*file)->Read(0, (*file)->Size());
  if (!contents.ok()) return contents.status();
  meta->contents = std::move(*contents);
  const std::string& bytes = meta->contents;
  if (bytes.size() < 4) return Status::Corruption("checkpoint too short");

  uint32_t stored =
      crc32c::Unmask(DecodeFixed32(bytes.data() + bytes.size() - 4));
  if (stored != crc32c::Value(bytes.data(), bytes.size() - 4)) {
    return Status::Corruption("checkpoint checksum mismatch");
  }
  Slice in(bytes.data(), bytes.size() - 4);
  uint64_t magic;
  uint32_t count;
  if (!GetFixed64(&in, &magic) || magic != kCheckpointMagic ||
      !GetFixed32(&in, &meta->position.segment) ||
      !GetFixed64(&in, &meta->position.offset) ||
      !GetFixed64(&in, &meta->next_lsn) || !GetFixed32(&in, &count)) {
    return Status::Corruption("bad checkpoint header");
  }
  for (uint32_t i = 0; i < count; i++) {
    CheckpointMeta::TabletSection section;
    if (!DecodeDescriptor(&in, &section.descriptor,
                          &section.source_instance)) {
      return Status::Corruption("bad checkpoint tablet entry");
    }
    const char* begin = in.data();
    LOGBASE_RETURN_NOT_OK(index::DecodeIndexSection(&in, nullptr));
    section.entries = Slice(begin, static_cast<size_t>(in.data() - begin));
    meta->tablets.push_back(std::move(section));
  }
  if (!in.empty()) return Status::Corruption("checkpoint trailing bytes");
  return Status::OK();
}

Result<CheckpointSeed> SeedFromCheckpoint(const CheckpointMeta* checkpoint,
                                          const TabletDescriptor& descriptor,
                                          index::MultiVersionIndex* index) {
  CheckpointSeed seed;
  if (checkpoint == nullptr) return seed;
  for (const auto& section : checkpoint->tablets) {
    if (!section.descriptor.Overlaps(descriptor)) continue;
    uint64_t before = index->num_entries();
    Slice entries = section.entries;
    LOGBASE_RETURN_NOT_OK(index::DecodeIndexSection(
        &entries, index, [&descriptor](const Slice& key) {
          return descriptor.Contains(key);
        }));
    seed.loaded = true;
    seed.start = checkpoint->position;
    seed.entries += index->num_entries() - before;
  }
  return seed;
}

}  // namespace checkpoint_internal

Result<const checkpoint_internal::CheckpointMeta*> CheckpointCache::Get(
    FileSystem* fs, const std::string& dir) {
  auto it = loaded_.find(dir);
  if (it == loaded_.end()) {
    auto meta = std::make_unique<checkpoint_internal::CheckpointMeta>();
    Status s = checkpoint_internal::LoadCheckpoint(fs, dir, meta.get());
    if (s.IsNotFound()) {
      meta.reset();
    } else if (!s.ok()) {
      return s;
    }
    it = loaded_.emplace(dir, std::move(meta)).first;
  }
  return it->second.get();
}

Status WriteServerCheckpoint(TabletServer* server) {
  namespace ci = checkpoint_internal;
  FileSystem* fs = server->fs_.get();
  const std::string path = ci::CheckpointPath(server->checkpoint_dir());
  MutexLock checkpoint_lock(server->checkpoint_mu_);

  // Capture the position FIRST: index entries created after it will simply
  // be redone on recovery (redo is an idempotent upsert). Flush drains any
  // open group-commit batch so the position covers every acked write. A
  // batch that may be durable but is not yet published is not in the
  // indexes encoded below, so the redo starts at the oldest such batch.
  LOGBASE_RETURN_NOT_OK(server->writer_->Flush());
  log::LogPosition position =
      server->unpublished_->Oldest(server->writer_->Position());
  uint64_t next_lsn = server->writer_->next_lsn();

  // Encode under the lock, write after releasing it. Each update counter
  // resets before its tablet is encoded, so an update published during or
  // after the encode counts toward the next threshold checkpoint.
  std::vector<std::string> sections;
  {
    MutexLock l(server->tablets_mu_);
    sections.reserve(server->tablets_.size());
    for (auto& [uid, tablet] : server->tablets_) {
      tablet->ResetUpdateCounter();
      std::string& section = sections.emplace_back();
      ci::EncodeDescriptor(&section, tablet->descriptor(),
                           tablet->source_instance());
      index::EncodeIndexSection(*tablet->index(), &section);
    }
  }

  std::string header;
  PutFixed64(&header, ci::kCheckpointMagic);
  PutFixed32(&header, position.segment);
  PutFixed64(&header, position.offset);
  PutFixed64(&header, next_lsn);
  PutFixed32(&header, static_cast<uint32_t>(sections.size()));

  // One file, renamed into place once: the anchor and every section become
  // visible together.
  const std::string tmp = path + ".tmp";
  auto file = fs->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  uint32_t crc = 0;
  auto append = [&file, &crc](const std::string& bytes) {
    crc = crc32c::Extend(crc, bytes.data(), bytes.size());
    return (*file)->Append(Slice(bytes));
  };
  LOGBASE_RETURN_NOT_OK(append(header));
  for (std::string& section : sections) {
    LOGBASE_RETURN_NOT_OK(append(section));
    // The file buffers what it was given until Sync; drop this copy so the
    // checkpoint holds about one copy of the indexes, not two.
    std::string().swap(section);
  }
  std::string trailer;
  PutFixed32(&trailer, crc32c::Mask(crc));
  LOGBASE_RETURN_NOT_OK((*file)->Append(Slice(trailer)));
  LOGBASE_RETURN_NOT_OK((*file)->Sync());
  LOGBASE_RETURN_NOT_OK((*file)->Close());
  LOGBASE_RETURN_NOT_OK(fs->Rename(tmp, path));
  LOGBASE_LOG(kDebug, "server %d checkpoint at segment %u offset %llu",
              server->server_id(), position.segment,
              static_cast<unsigned long long>(position.offset));
  return Status::OK();
}

}  // namespace logbase::tablet

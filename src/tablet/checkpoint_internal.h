// Shared between checkpoint.cc (writer), recovery.cc (loader) and replica
// seeding: the checkpoint file format and the range-filtered reload.

#ifndef LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_
#define LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_

#include <string>
#include <vector>

#include "src/index/multiversion_index.h"
#include "src/log/log_writer.h"
#include "src/tablet/schema.h"
#include "src/util/io.h"

namespace logbase::tablet::checkpoint_internal {

/// One file per server: fixed64 magic, the log position (fixed32 segment,
/// fixed64 offset), fixed64 next LSN, fixed32 tablet count; per tablet its
/// descriptor, fixed32 source instance and index section
/// (index::EncodeIndexSection); fixed32 masked CRC32C over all before it.
inline constexpr uint64_t kCheckpointMagic = 0x4c42434b5032ull;  // "LBCKP2"

std::string CheckpointPath(const std::string& dir);

struct CheckpointMeta {
  CheckpointMeta() = default;
  // Pinned in place: every section's `entries` points into `contents`.
  CheckpointMeta(const CheckpointMeta&) = delete;
  CheckpointMeta& operator=(const CheckpointMeta&) = delete;

  log::LogPosition position;
  uint64_t next_lsn = 1;
  struct TabletSection {
    TabletDescriptor descriptor;
    /// The log instance the tablet reads from.
    uint32_t source_instance = 0;
    /// Its encoded index section; points into `contents`.
    Slice entries;
  };
  std::vector<TabletSection> tablets;
  std::string contents;  // the file's bytes
};

/// Reads and checks the checkpoint under `dir` into `meta` (NotFound when
/// there is none).
Status LoadCheckpoint(FileSystem* fs, const std::string& dir,
                      CheckpointMeta* meta);

/// What SeedFromCheckpoint loaded.
struct CheckpointSeed {
  bool loaded = false;           // some checkpointed tablet overlapped
  log::LogPosition start{0, 0};  // the seeded index is complete up to here
  uint64_t entries = 0;          // entries loaded into the index
};

/// Loads the checkpointed index entries under `dir` that fall in
/// `descriptor`'s key range into `index`. Sections are matched by range
/// overlap, never by uid: a split child seeds its half of the parent's
/// checkpoint. Without a checkpoint nothing loads and the redo starts at the
/// log's beginning. Shared by tablet adoption and replica seeding.
Result<CheckpointSeed> SeedFromCheckpoint(FileSystem* fs,
                                          const std::string& dir,
                                          const TabletDescriptor& descriptor,
                                          index::MultiVersionIndex* index);

}  // namespace logbase::tablet::checkpoint_internal

#endif  // LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_

// Shared between checkpoint.cc (writer), recovery.cc (loader) and replica
// seeding: the checkpoint block format and the range-filtered reload.

#ifndef LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_
#define LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_

#include <string>
#include <utility>
#include <vector>

#include "src/index/multiversion_index.h"
#include "src/log/log_writer.h"
#include "src/tablet/schema.h"
#include "src/util/io.h"

namespace logbase::tablet::checkpoint_internal {

inline constexpr uint64_t kCheckpointMagic = 0x4c42434b50ull;  // "LBCKP"

std::string MetaPath(const std::string& dir);
std::string IndexFilePath(const std::string& dir, const std::string& uid);

struct CheckpointMeta {
  log::LogPosition position;
  uint64_t next_lsn = 1;
  /// Descriptors plus the log instance each tablet reads from.
  std::vector<std::pair<TabletDescriptor, uint32_t>> tablets;
};

Status LoadMeta(FileSystem* fs, const std::string& dir, CheckpointMeta* meta);

/// What SeedFromCheckpoint loaded.
struct CheckpointSeed {
  bool loaded = false;           // some checkpointed index file overlapped
  log::LogPosition start{0, 0};  // the seeded index is complete up to here
  uint64_t entries = 0;          // entries loaded into the index
};

/// Loads the checkpointed index entries under `dir` that fall in
/// `descriptor`'s key range into `index`. Entries are matched by range
/// overlap, never by uid: a split child seeds its half of the parent's
/// checkpoint. Without a checkpoint nothing loads and the redo starts at the
/// log's beginning. Shared by tablet adoption and replica seeding.
Result<CheckpointSeed> SeedFromCheckpoint(FileSystem* fs,
                                          const std::string& dir,
                                          const TabletDescriptor& descriptor,
                                          index::MultiVersionIndex* index);

}  // namespace logbase::tablet::checkpoint_internal

#endif  // LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_

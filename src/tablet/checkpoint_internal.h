// Shared between checkpoint.cc (writer), recovery.cc (loader), replica
// seeding and the master's reassignment: the checkpoint file format, the
// range-filtered reload and the cache that loads each file once.

#ifndef LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_
#define LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_

#include <map>
#include <memory>
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
/// (index::EncodeIndexSection: fixed64 entry count, then per entry varint
/// shared-prefix length, varint suffix length and suffix bytes, varint
/// timestamp or gap below the key's previous version, and varint LogPtr
/// fields); fixed32 masked CRC32C over all before it. The log position is
/// the oldest of the writer's position and every batch submitted but not
/// yet published. A file under an earlier magic is Corruption.
inline constexpr uint64_t kCheckpointMagic = 0x4c42434b5033ull;  // "LBCKP3"

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

/// Loads the entries of `checkpoint` (nullptr: the source has none) that
/// fall in `descriptor`'s key range into `index`. Sections are matched by
/// range overlap, never by uid: a split child seeds its half of the parent's
/// checkpoint. Without a checkpoint nothing loads and the redo starts at the
/// log's beginning. Shared by tablet adoption and replica seeding, which get
/// `checkpoint` from a CheckpointCache.
Result<CheckpointSeed> SeedFromCheckpoint(const CheckpointMeta* checkpoint,
                                          const TabletDescriptor& descriptor,
                                          index::MultiVersionIndex* index);

}  // namespace logbase::tablet::checkpoint_internal

namespace logbase::tablet {

/// Checkpoint files loaded for seeding tablets, each read and checked once:
/// a caller that seeds several tablets from one source (a split's children,
/// one replica tick's re-seeds) passes one cache to every seed. Confined to
/// its caller's thread.
class CheckpointCache {
 public:
  /// The checkpoint under `dir`, read through `fs` on first use; nullptr
  /// when there is none.
  Result<const checkpoint_internal::CheckpointMeta*> Get(
      FileSystem* fs, const std::string& dir);

 private:
  // By directory; null where the directory holds no checkpoint.
  std::map<std::string, std::unique_ptr<checkpoint_internal::CheckpointMeta>>
      loaded_;
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_CHECKPOINT_INTERNAL_H_

// Level metadata for the LSM-tree: which sorted-run files live on which
// level, compaction picking by level score, and manifest
// serialization. Thread-safe; readers take snapshots of a level's file list.

#ifndef LOGBASE_LSM_VERSION_SET_H_
#define LOGBASE_LSM_VERSION_SET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/lsm/format.h"
#include "src/sstable/table_reader.h"
#include "src/util/result.h"

#include "src/util/ordered_mutex.h"

namespace logbase::lsm {

struct FileMeta {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // internal keys
  std::string largest;
  std::shared_ptr<sstable::TableReader> table;
};

class VersionSet {
 public:
  VersionSet(const InternalKeyComparator* comparator, int num_levels);

  void AddFile(int level, std::shared_ptr<FileMeta> file);

  /// Atomically applies a compaction: removes the input file numbers from
  /// `level` and `level + 1`, installs `outputs` into `level + 1`.
  void ApplyCompaction(int level, const std::vector<uint64_t>& removed_inputs,
                       std::vector<std::shared_ptr<FileMeta>> outputs);

  /// Snapshot of a level's files. L0 is ordered newest-first (by file
  /// number descending); deeper levels by smallest key.
  std::vector<std::shared_ptr<FileMeta>> LevelFiles(int level) const;

  /// Files in `level` whose key range intersects [begin, end] (internal
  /// keys; empty slices mean unbounded).
  std::vector<std::shared_ptr<FileMeta>> Overlapping(int level,
                                                     const Slice& begin,
                                                     const Slice& end) const;

  int num_levels() const { return num_levels_; }
  int LevelFileCount(int level) const;
  uint64_t TotalBytes() const;

  struct CompactionPick {
    int level = -1;  // -1: nothing to do
    std::vector<std::shared_ptr<FileMeta>> inputs;       // from `level`
    std::vector<std::shared_ptr<FileMeta>> next_inputs;  // from `level + 1`
  };
  /// Highest-score compaction, or level == -1 when all scores < 1.
  CompactionPick PickCompaction(int l0_trigger, uint64_t base_level_bytes);

  /// True when no level deeper than `level` has files overlapping
  /// [begin, end] — compactions may then drop tombstones.
  bool IsBottomMost(int level, const Slice& begin, const Slice& end) const;

  struct ManifestEntry {
    int level;
    uint64_t number;
    uint64_t file_size;
    std::string smallest;
    std::string largest;
  };
  std::vector<ManifestEntry> Snapshot() const;

 private:
  void SortLevel(int level) REQUIRES(mu_);

  const InternalKeyComparator* comparator_;
  const int num_levels_;  // levels_ never grows or shrinks after construction
  mutable OrderedMutex mu_{lockrank::kLsmVersions, "lsm.versions"};
  std::vector<std::vector<std::shared_ptr<FileMeta>>> levels_ GUARDED_BY(mu_);
};

}  // namespace logbase::lsm

#endif  // LOGBASE_LSM_VERSION_SET_H_

// A leveled LSM-tree (mini-LevelDB): memtable -> L0 sorted runs -> leveled
// compaction, bloom filters, snapshot reads by sequence number.
//
// Two roles in this repository (paper §2.3, §3.5, §4.6):
//  * the index of the LRS baseline (RAMCloud-like record store with a
//    disk-resident LevelDB index), and
//  * LogBase's "scale the index beyond memory" option (IndexKind::kLsm).
//
// Durability model: the LSM here indexes data whose source of truth is the
// log, so it keeps no write-ahead log of its own; after a crash the owner
// rebuilds from its log + the persisted manifest/runs (exactly how the paper
// argues LSM-trees assume an external WAL).

#ifndef LOGBASE_LSM_LSM_TREE_H_
#define LOGBASE_LSM_LSM_TREE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/lsm/format.h"
#include "src/lsm/memtable.h"
#include "src/lsm/version_set.h"
#include "src/sstable/block_cache.h"
#include "src/sstable/table.h"
#include "src/util/io.h"
#include "src/util/iterator.h"
#include "src/util/result.h"

#include "src/util/ordered_mutex.h"

namespace logbase::lsm {

struct LsmOptions {
  sstable::TableOptions table;
  /// Write-buffer size; the paper's LRS experiment uses LevelDB's moderate
  /// 4 MB default (§4.6).
  size_t memtable_bytes = 4ull << 20;
  int l0_compaction_trigger = 4;
  uint64_t base_level_bytes = 10ull << 20;
  uint64_t max_output_file_bytes = 2ull << 20;
  sstable::BlockCache* block_cache = nullptr;
};

class LsmTree {
 public:
  /// Opens (or creates) a tree rooted at `dir` on `fs`, recovering level
  /// metadata from the manifest when present.
  static Result<std::unique_ptr<LsmTree>> Open(LsmOptions options,
                                               FileSystem* fs,
                                               std::string dir);

  ~LsmTree();
  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);

  /// Latest visible version.
  Result<std::string> Get(const Slice& key) const {
    return Get(key, last_sequence());
  }
  /// Newest version with sequence <= snapshot.
  Result<std::string> Get(const Slice& key, uint64_t snapshot) const;

  /// User-visible iterator: latest live version per key, tombstones hidden.
  std::unique_ptr<KvIterator> NewIterator() const;

  /// Forces the memtable into an L0 run.
  Status FlushMemTable();
  /// Runs compactions until every level score is below 1.
  Status CompactUntilQuiet();

  uint64_t last_sequence() const {
    return sequence_.load(std::memory_order_acquire);
  }
  int LevelFileCount(int level) const {
    return versions_->LevelFileCount(level);
  }
  uint64_t TotalTableBytes() const { return versions_->TotalBytes(); }

 private:
  LsmTree(LsmOptions options, FileSystem* fs, std::string dir);

  Status WriteEntry(ValueType type, const Slice& key, const Slice& value)
      EXCLUDES(write_mu_);
  Status FlushMemTableLocked() REQUIRES(write_mu_);
  Status CompactOnce(bool* did_work);
  /// Drains `iter` (internal keys, merged order) into <= max-size output
  /// tables, dropping shadowed versions and, when `drop_tombstones`,
  /// deletion markers.
  Status WriteMergedRuns(KvIterator* iter, bool drop_tombstones,
                         std::vector<std::shared_ptr<FileMeta>>* outputs);
  Result<std::shared_ptr<FileMeta>> OpenTableFile(uint64_t number,
                                                  uint64_t file_size);
  std::string TableFileName(uint64_t number) const;
  Status SaveManifest();
  Status LoadManifest();

  const LsmOptions options_;
  FileSystem* const fs_;
  const std::string dir_;
  // Both fixed once the constructor body finishes (the table options are
  // patched there to point at internal_comparator_).
  InternalKeyComparator internal_comparator_;
  sstable::TableOptions internal_table_options_;

  mutable OrderedMutex write_mu_{lockrank::kLsmWrite, "lsm.write"};  // serializes writers, flush, compaction
  // Readers copy the shared_ptr under write_mu_ and search the immutable
  // snapshot outside it (MemTable is safe for concurrent readers).
  std::shared_ptr<MemTable> mem_ GUARDED_BY(write_mu_);
  // Set once in the constructor; VersionSet is internally synchronized.
  std::unique_ptr<VersionSet> versions_;
  std::atomic<uint64_t> sequence_{0};
  std::atomic<uint64_t> next_file_number_{1};
};

}  // namespace logbase::lsm

#endif  // LOGBASE_LSM_LSM_TREE_H_

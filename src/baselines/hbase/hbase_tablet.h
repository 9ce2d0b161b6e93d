// One HBase-baseline tablet ("region"): memtable + immutable store files in
// the DFS + the server-shared WAL. This is the WAL+Data architecture the
// paper compares against: every write lands in both the WAL and (eventually)
// a store file; reads may have to probe multiple store files through their
// block indexes (§4.2.2); a full memtable stalls the write that filled it
// until the flush completes (§4.3).

#ifndef LOGBASE_BASELINES_HBASE_HBASE_TABLET_H_
#define LOGBASE_BASELINES_HBASE_HBASE_TABLET_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/baselines/hbase/hbase_memtable.h"
#include "src/log/log_writer.h"
#include "src/sstable/block_cache.h"
#include "src/sstable/table_reader.h"
#include "src/tablet/read_path.h"  // ReadValue / ReadRow

#include "src/util/ordered_mutex.h"

namespace logbase::baselines::hbase {

struct HTabletOptions {
  /// Memtable flush threshold; HBase's default matches the 64 MB chunk.
  uint64_t memtable_flush_bytes = 64ull << 20;
  /// Minor compaction trigger (store file count).
  int compaction_trigger = 4;
  sstable::TableOptions table;  // bloom off: HBase 0.90 defaults
  sstable::BlockCache* block_cache = nullptr;
};

class HTablet {
 public:
  /// `numeric_id` tags this tablet's WAL records; `wal` is the server's
  /// shared log; `dir` is this tablet's store-file directory.
  HTablet(std::string uid, uint32_t numeric_id, HTabletOptions options,
          FileSystem* fs, log::LogWriter* wal, std::string dir);

  const std::string& uid() const { return uid_; }
  uint32_t numeric_id() const { return numeric_id_; }

  /// Loads META (store files, flushed-WAL position) if present.
  Status Open();

  /// WAL append + memtable insert; flushes synchronously when full.
  Status Put(const Slice& key, uint64_t timestamp, const Slice& value);
  /// Client-side write buffering (HBase autoFlush=false): one WAL append
  /// for the whole batch, then the memtable inserts.
  Status PutBatch(
      const std::vector<std::pair<std::string, std::string>>& kvs,
      const std::vector<uint64_t>& timestamps);
  Status Delete(const Slice& key, uint64_t timestamp);
  /// Memtable-only apply during WAL replay (no re-logging).
  void ApplyRecovered(const Slice& key, uint64_t timestamp, bool is_delete,
                      const Slice& value);

  Result<tablet::ReadValue> Get(const Slice& key,
                                uint64_t as_of = index::kLatest);
  Result<std::vector<tablet::ReadRow>> Scan(const Slice& start_key,
                                            const Slice& end_key,
                                            uint64_t as_of = index::kLatest);

  /// Persists the memtable into a new store file (the WAL+Data double
  /// write) and records the flushed WAL position in META.
  Status Flush();
  /// Merges all store files into one, dropping tombstoned history.
  Status CompactStores();

  /// WAL position already covered by store files (replay starts here).
  log::LogPosition flushed_position() const;
  size_t memtable_bytes() const;
  int num_store_files() const;
  uint64_t store_file_bytes() const;

 private:
  struct StoreFile {
    uint64_t number = 0;
    uint64_t size = 0;
    std::shared_ptr<sstable::TableReader> table;
  };

  Status WriteStoreFile(KvIterator* iter, bool drop_tombstones,
                        StoreFile* out) REQUIRES(mu_);
  Status CompactStoresLockedAlreadyHeld_() REQUIRES(mu_);
  Status MinorCompactLocked_() REQUIRES(mu_);
  Status SaveMeta() REQUIRES(mu_);
  std::string StoreFileName(uint64_t number) const;
  std::string MetaPath() const { return dir_ + "/META"; }

  const std::string uid_;
  const uint32_t numeric_id_;
  const HTabletOptions options_;
  FileSystem* const fs_;
  log::LogWriter* const wal_;
  const std::string dir_;

  mutable OrderedMutex mu_{lockrank::kHBaseTablet, "hbase.tablet"};
  std::unique_ptr<HMemTable> mem_ GUARDED_BY(mu_);
  std::vector<StoreFile> stores_ GUARDED_BY(mu_);  // newest first
  uint64_t next_file_number_ GUARDED_BY(mu_) = 1;
  log::LogPosition flushed_position_ GUARDED_BY(mu_){};
};

}  // namespace logbase::baselines::hbase

#endif  // LOGBASE_BASELINES_HBASE_HBASE_TABLET_H_

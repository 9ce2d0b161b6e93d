// The HBase-baseline region server: one shared WAL in the DFS, HTablets
// with memtables + store files, a block cache sized like the paper's
// configuration (20% of heap for data blocks, §4.1), and WAL-replay
// recovery.

#ifndef LOGBASE_BASELINES_HBASE_HBASE_SERVER_H_
#define LOGBASE_BASELINES_HBASE_HBASE_SERVER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/baselines/hbase/hbase_tablet.h"
#include "src/coord/coordination_service.h"
#include "src/dfs/dfs.h"

#include "src/util/ordered_mutex.h"

namespace logbase::baselines::hbase {

struct HBaseServerOptions {
  int server_id = 0;
  uint64_t segment_bytes = 64ull << 20;  // WAL segment size
  uint64_t memtable_flush_bytes = 64ull << 20;
  int compaction_trigger = 4;
  size_t block_cache_bytes = 0;  // 0 disables the block cache
  sstable::TableOptions table;
};

class HBaseServer {
 public:
  HBaseServer(HBaseServerOptions options, dfs::Dfs* dfs,
              coord::CoordinationService* coord);
  ~HBaseServer();

  /// Recovers registered tablets (store files + WAL replay) and opens a
  /// fresh WAL segment.
  Status Start();
  Status Stop();
  void Crash();
  bool running() const { return running_; }

  Status OpenTablet(const std::string& uid);

  Status Put(const std::string& uid, const Slice& key, const Slice& value);
  Status PutBatch(
      const std::string& uid,
      const std::vector<std::pair<std::string, std::string>>& kvs);
  Result<tablet::ReadValue> Get(const std::string& uid, const Slice& key);
  Status Delete(const std::string& uid, const Slice& key);
  Result<std::vector<tablet::ReadRow>> Scan(const std::string& uid,
                                            const Slice& start_key,
                                            const Slice& end_key);

  Status FlushAll();
  Status CompactAll();

  HTablet* FindTablet(const std::string& uid);
  sstable::BlockCache* block_cache() { return block_cache_.get(); }
  int server_id() const { return options_.server_id; }

 private:
  std::string root() const {
    return "/hbase/" + std::to_string(options_.server_id);
  }
  uint64_t NextTimestamp() EXCLUDES(ts_mu_);
  /// The tablet a data call names: Unavailable while the server is down,
  /// NotFound when it hosts no such tablet.
  Result<HTablet*> LiveTablet(const std::string& uid);
  Status ReplayWal() EXCLUDES(tablets_mu_);
  /// uid -> numeric id mapping, persisted so WAL records stay routable
  /// across restarts.
  Status LoadRegistryLocked() REQUIRES(tablets_mu_);
  Status SaveRegistryLocked() REQUIRES(tablets_mu_);

  HBaseServerOptions options_;  // fixed after construction
  dfs::Dfs* const dfs_;
  coord::CoordinationService* const coord_;
  std::unique_ptr<FileSystem> fs_;
  std::unique_ptr<sstable::BlockCache> block_cache_;
  std::unique_ptr<log::LogWriter> wal_;

  // Written by Start/Stop/Crash only (single-threaded lifecycle, matching
  // the baseline harness's usage).
  bool running_ = false;
  OrderedMutex tablets_mu_{lockrank::kHBaseServerTablets,
                         "hbase.server.tablets"};
  // HTablet values are stable until Crash and internally synchronized, so
  // FindTablet hands out raw pointers for use off-lock.
  std::map<std::string, std::unique_ptr<HTablet>> tablets_
      GUARDED_BY(tablets_mu_);
  std::map<uint32_t, HTablet*> by_numeric_id_ GUARDED_BY(tablets_mu_);
  // Persisted uid -> id.
  std::map<std::string, uint32_t> registry_ GUARDED_BY(tablets_mu_);
  bool registry_loaded_ GUARDED_BY(tablets_mu_) = false;
  uint32_t next_numeric_id_ GUARDED_BY(tablets_mu_) = 1;

  OrderedMutex ts_mu_{lockrank::kHBaseServerTimestamps,
                    "hbase.server.timestamps"};
  uint64_t ts_next_ GUARDED_BY(ts_mu_) = 0;
  uint64_t ts_limit_ GUARDED_BY(ts_mu_) = 0;
};

}  // namespace logbase::baselines::hbase

#endif  // LOGBASE_BASELINES_HBASE_HBASE_SERVER_H_

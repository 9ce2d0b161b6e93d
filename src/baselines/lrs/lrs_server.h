// LRS — the paper's second baseline (§4.6): a log-structured record-oriented
// system modeled after RAMCloud but disk-based, with the same distributed
// architecture and data partitioning as LogBase; the difference is the
// index: a disk-resident LSM-tree (LevelDB-style, 4 MB write buffer) instead
// of LogBase's dense in-memory B-link tree.
//
// Implementation-wise LRS *is* a TabletServer configured with
// IndexKind::kLsm — the paper frames it the same way ("explore the
// opportunity of scaling the indexes beyond memory"). This header provides
// the factory that pins down that configuration.

#ifndef LOGBASE_BASELINES_LRS_LRS_SERVER_H_
#define LOGBASE_BASELINES_LRS_LRS_SERVER_H_

#include <memory>

#include "src/tablet/tablet_server.h"

namespace logbase::baselines::lrs {

struct LrsOptions {
  int server_id = 0;
  uint64_t segment_bytes = 64ull << 20;
  /// LevelDB-default-ish write buffer (the paper: 4 MB; the read buffer is
  /// 8 MB).
  size_t write_buffer_bytes = 4ull << 20;
};

/// Builds a tablet server whose multiversion index is the LSM-tree.
std::unique_ptr<tablet::TabletServer> NewLrsServer(
    const LrsOptions& options, dfs::Dfs* dfs,
    coord::CoordinationService* coord, sstable::BlockCache* block_cache);

}  // namespace logbase::baselines::lrs

#endif  // LOGBASE_BASELINES_LRS_LRS_SERVER_H_

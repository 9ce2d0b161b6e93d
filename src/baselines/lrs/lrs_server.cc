#include "src/baselines/lrs/lrs_server.h"

namespace logbase::baselines::lrs {

namespace {
/// The paper's 8 MB LRS read buffer.
constexpr size_t kReadCacheBytes = 8ull << 20;
}  // namespace

std::unique_ptr<tablet::TabletServer> NewLrsServer(
    const LrsOptions& options, dfs::Dfs* dfs,
    coord::CoordinationService* coord, sstable::BlockCache* block_cache) {
  tablet::TabletServerOptions server_options;
  server_options.server_id = options.server_id;
  server_options.index_kind = index::IndexKind::kLsm;
  server_options.segment_bytes = options.segment_bytes;
  server_options.read_buffer_bytes = kReadCacheBytes;
  server_options.lsm.memtable_bytes = options.write_buffer_bytes;
  server_options.lsm.block_cache = block_cache;
  return std::make_unique<tablet::TabletServer>(server_options, dfs, coord);
}

}  // namespace logbase::baselines::lrs

// The block-based sorted-table file format (shared by the HBase-baseline
// store files and the LSM-tree's sorted runs):
//
//   [data block 0][crc] [data block 1][crc] ... [filter block][crc]
//   [index block][crc] [footer]
//
// The index block maps each data block's last key to its BlockHandle; the
// footer locates index and filter. Keys inside blocks are prefix-compressed
// with restart points. All multi-byte integers are little-endian.

#ifndef LOGBASE_SSTABLE_TABLE_H_
#define LOGBASE_SSTABLE_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/util/coding.h"
#include "src/util/comparator.h"
#include "src/util/slice.h"

namespace logbase::sstable {

struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;  // raw contents, excluding the 4-byte CRC trailer

  void EncodeTo(std::string* dst) const {
    PutVarint64(dst, offset);
    PutVarint64(dst, size);
  }
  bool DecodeFrom(Slice* input) {
    return GetVarint64(input, &offset) && GetVarint64(input, &size);
  }
};

inline constexpr uint64_t kTableMagic = 0x4c6f6742617365ull;  // "LogBase"
/// Footer: fixed64 × {index.offset, index.size, filter.offset, filter.size,
/// num_entries, magic}.
inline constexpr size_t kFooterSize = 6 * 8;

struct TableOptions {
  size_t block_size = 64 * 1024;  // HBase default block size (paper §4.2.2)
  int restart_interval = 16;
  bool enable_bloom = true;
  const Comparator* comparator = BytewiseComparator();
  /// Maps an entry key to the key stored in / probed against the bloom
  /// filter (the LSM strips version trailers so all versions share one
  /// filter entry). Identity when unset.
  std::function<Slice(const Slice&)> filter_key_extractor;
};

}  // namespace logbase::sstable

#endif  // LOGBASE_SSTABLE_TABLE_H_

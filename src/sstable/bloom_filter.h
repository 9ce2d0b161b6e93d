// Bloom filter over a table's keys, avoiding data-block reads for absent
// keys (bLSM-style read optimization, paper §2.3; used by the LSM index and
// optionally by the HBase baseline's store files).

#ifndef LOGBASE_SSTABLE_BLOOM_FILTER_H_
#define LOGBASE_SSTABLE_BLOOM_FILTER_H_

#include <string>
#include <vector>

#include "src/util/slice.h"

namespace logbase::sstable {

class BloomFilterBuilder {
 public:
  explicit BloomFilterBuilder(int bits_per_key = 10);

  void AddKey(const Slice& key);
  /// Serializes the filter: bit array followed by a probe-count byte.
  std::string Finish();

 private:
  const int bits_per_key_;
  std::vector<uint32_t> hashes_;
};

class BloomFilterReader {
 public:
  /// `data` must outlive the reader (typically owned by the table reader).
  explicit BloomFilterReader(Slice data) : data_(data) {}

  /// False means definitely absent; true means possibly present.
  bool MayContain(const Slice& key) const;

 private:
  Slice data_;
};

/// The hash both sides use.
uint32_t BloomHash(const Slice& key);

}  // namespace logbase::sstable

#endif  // LOGBASE_SSTABLE_BLOOM_FILTER_H_

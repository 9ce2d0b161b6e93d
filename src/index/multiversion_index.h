// The multiversion index abstraction (paper §3.5): entries are
// <IdxKey, Ptr> where IdxKey = (record primary key, write timestamp) and Ptr
// locates the record in the log. Two implementations:
//  * BlinkTree — the paper's in-memory B-link tree (IndexKind::kBlink);
//  * LsmIndex — an LSM-tree-backed index for when tablet-server memory is
//    scarce (§3.5 scale-out option / the LRS baseline, §4.6).

#ifndef LOGBASE_INDEX_MULTIVERSION_INDEX_H_
#define LOGBASE_INDEX_MULTIVERSION_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/log/log_record.h"
#include "src/util/result.h"
#include "src/util/slice.h"

namespace logbase::index {

/// The snapshot that sees every version: reads at kLatest return a key's
/// newest version. The one "latest" sentinel of every server-side read.
constexpr uint64_t kLatest = ~0ull;

struct IndexEntry {
  std::string key;
  uint64_t timestamp = 0;
  log::LogPtr ptr;
};

enum class IndexKind {
  kBlink,  // dense in-memory B-link tree (the paper's primary design)
  kLsm,    // LSM-tree index on the DFS (memory-constrained configuration)
};

class MultiVersionIndex {
 public:
  virtual ~MultiVersionIndex() = default;

  /// Registers version `timestamp` of `key` at `ptr`. Upserts: re-inserting
  /// the same (key, timestamp) replaces the pointer (recovery redo applies
  /// newer LSNs over checkpointed entries).
  virtual Status Insert(const Slice& key, uint64_t timestamp,
                        const log::LogPtr& ptr) = 0;

  /// The newest version of `key`, or NotFound.
  virtual Result<IndexEntry> GetLatest(const Slice& key) const = 0;

  /// The newest version with timestamp <= `as_of`, or NotFound (historical
  /// reads, §3.6.2).
  virtual Result<IndexEntry> GetAsOf(const Slice& key,
                                     uint64_t as_of) const = 0;

  /// All versions of `key`, newest first.
  virtual std::vector<IndexEntry> GetAllVersions(const Slice& key) const = 0;

  /// Repoints an existing (key, timestamp) entry at `ptr`; NotFound when the
  /// version is not indexed. Log compaction uses this to swing pointers to
  /// the sorted segments without resurrecting deleted keys (§3.6.5).
  virtual Status UpdateIfPresent(const Slice& key, uint64_t timestamp,
                                 const log::LogPtr& ptr) = 0;

  /// Removes every version of `key` (step one of Delete, §3.6.3).
  virtual Status RemoveAllVersions(const Slice& key) = 0;

  /// Latest version <= `as_of` of every key in [start, end); end empty =
  /// unbounded. Ordered by key.
  virtual std::vector<IndexEntry> ScanRange(const Slice& start,
                                            const Slice& end,
                                            uint64_t as_of) const = 0;

  /// Visits every entry in (key asc, timestamp desc) order — checkpointing
  /// and version-counter scans.
  virtual void VisitAll(
      const std::function<void(const IndexEntry&)>& visitor) const = 0;

  virtual size_t num_entries() const = 0;
  /// Rough resident bytes; drives the §3.5 sizing discussion and the
  /// checkpoint-threshold logic.
  virtual size_t ApproximateMemoryBytes() const = 0;
};

}  // namespace logbase::index

#endif  // LOGBASE_INDEX_MULTIVERSION_INDEX_H_

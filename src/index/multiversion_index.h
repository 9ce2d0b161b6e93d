// The multiversion index abstraction (paper §3.5): entries are
// <IdxKey, Ptr> where IdxKey = (record primary key, write timestamp) and Ptr
// locates the record in the log. Two implementations:
//  * BlinkTree — the paper's in-memory B-link tree (IndexKind::kBlink);
//  * LsmIndex — an LSM-tree-backed index for when tablet-server memory is
//    scarce (§3.5 scale-out option / the LRS baseline, §4.6).
// Each implementation walks its entries forward one way, in (key asc,
// timestamp desc) order from a seek point; its multi-entry reads
// (GetAllVersions, ScanRange, VisitAll) are visitors over that walk, and
// both range scans pick versions through NewestVisible. A read of the
// newest version passes kLatest to GetAsOf.

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

/// The newest-visible-version rule of every range scan. Fed versions in
/// (key asc, timestamp desc) order, it admits the first version of each key
/// whose timestamp is at or below the snapshot, and nothing else of that
/// key.
class NewestVisible {
 public:
  explicit NewestVisible(uint64_t as_of) : as_of_(as_of) {}

  /// True when (key, timestamp) is its key's newest version visible at the
  /// snapshot.
  bool Admit(const Slice& key, uint64_t timestamp) {
    if (!have_current_ || key != Slice(current_key_)) {
      current_key_.assign(key.data(), key.size());
      have_current_ = true;
      taken_ = false;
    }
    if (taken_ || timestamp > as_of_) return false;
    taken_ = true;
    return true;
  }

 private:
  const uint64_t as_of_;
  std::string current_key_;
  bool have_current_ = false;
  bool taken_ = false;
};

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

  /// The newest version with timestamp <= `as_of`, or NotFound (historical
  /// reads, §3.6.2; kLatest reads the newest version).
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
};

}  // namespace logbase::index

#endif  // LOGBASE_INDEX_MULTIVERSION_INDEX_H_

// The per-server read buffer (paper §3.6.2): a record-level cache of
// recently read/written rows. Unlike HBase's memtable it holds no dirty data
// — purely a read optimization — so it never creates flush stalls. The
// replacement strategy is pluggable (the paper calls this out as an
// abstracted interface); LRU is the default.

#ifndef LOGBASE_TABLET_READ_BUFFER_H_
#define LOGBASE_TABLET_READ_BUFFER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/util/ordered_mutex.h"

namespace logbase::tablet {

/// A cached record: its version (write timestamp) and value. The buffer
/// always holds the *latest* known version of a row.
struct CachedRecord {
  uint64_t timestamp = 0;
  std::string value;
};

/// Chooses eviction victims. Implementations are called with the buffer's
/// mutex held — they must not call back into the buffer.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual void OnInsert(const std::string& key) = 0;
  virtual void OnAccess(const std::string& key) = 0;
  virtual void OnRemove(const std::string& key) = 0;
  /// The key to evict next; empty when nothing is tracked.
  virtual std::string Victim() = 0;
};

/// Least-recently-used (the default, §3.6.2).
std::unique_ptr<ReplacementPolicy> MakeLruPolicy();
/// First-in-first-out (ablation alternative).
std::unique_ptr<ReplacementPolicy> MakeFifoPolicy();

/// Thread-safe record cache bounded by total bytes.
class ReadBuffer {
 public:
  ReadBuffer(size_t capacity_bytes, std::unique_ptr<ReplacementPolicy> policy);

  bool enabled() const { return capacity_ > 0; }

  /// Returns true and fills `record` on a hit.
  bool Get(const std::string& key, CachedRecord* record);

  /// Inserts/refreshes; keeps the newer version on timestamp conflicts.
  void Put(const std::string& key, CachedRecord record);

  void Invalidate(const std::string& key);
  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  size_t usage() const;

 private:
  void EvictIfNeeded() REQUIRES(mu_);

  const size_t capacity_;
  mutable OrderedMutex mu_{lockrank::kReadBuffer, "tablet.read_buffer"};
  std::unique_ptr<ReplacementPolicy> policy_ GUARDED_BY(mu_);
  std::unordered_map<std::string, CachedRecord> map_ GUARDED_BY(mu_);
  size_t usage_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_READ_BUFFER_H_

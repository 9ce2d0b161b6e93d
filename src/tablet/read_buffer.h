// The per-server read buffer (paper §3.6.2): a record-level cache of
// recently read/written rows. Unlike HBase's memtable it holds no dirty data
// — purely a read optimization — so it never creates flush stalls. The
// replacement strategy is pluggable (the paper calls this out as an
// abstracted interface); LRU is the default.
//
// One hash map owns the entries. A policy orders them through links inside
// each entry (an intrusive list), so a Put hashes its key once and a
// recency update allocates nothing.

#ifndef LOGBASE_TABLET_READ_BUFFER_H_
#define LOGBASE_TABLET_READ_BUFFER_H_

#include <cstdint>
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

/// One buffered record. The buffer owns it; a ReplacementPolicy orders the
/// tracked entries through `prev` / `next`.
struct BufferEntry {
  const std::string* key = nullptr;  // the buffer map's own key
  CachedRecord record;
  BufferEntry* prev = nullptr;
  BufferEntry* next = nullptr;
};

/// Chooses eviction victims. Implementations are called with the buffer's
/// mutex held — they must not call back into the buffer.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  /// A new entry; it is not tracked yet.
  virtual void OnInsert(BufferEntry* entry) = 0;
  /// A tracked entry was read or overwritten.
  virtual void OnAccess(BufferEntry* entry) = 0;
  /// A tracked entry leaves the buffer.
  virtual void OnRemove(BufferEntry* entry) = 0;
  /// The tracked entry to evict next; nullptr when nothing is tracked.
  virtual BufferEntry* Victim() = 0;
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
  using Map = std::unordered_map<std::string, BufferEntry>;

  void EvictIfNeeded() REQUIRES(mu_);
  /// Drops `it` from the policy's order and the map.
  void EraseLocked(Map::iterator it) REQUIRES(mu_);

  const size_t capacity_;
  mutable OrderedMutex mu_{lockrank::kReadBuffer, "tablet.read_buffer"};
  std::unique_ptr<ReplacementPolicy> policy_ GUARDED_BY(mu_);
  // Node-based: an entry's address is stable while it is buffered.
  Map map_ GUARDED_BY(mu_);
  size_t usage_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_READ_BUFFER_H_

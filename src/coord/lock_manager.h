// Distributed write locks on the znode tree (ZK lock recipe with ephemeral
// nodes). MVOCC validation takes the locks over a transaction's write set
// (paper §3.7.1, "Validation with Write Locks") as one all-or-nothing set:
// one multi creates every lock node or none, so no caller ever holds part
// of a set while waiting for the rest, and no acquisition order is needed
// to avoid deadlock. The same multi draws the transaction's commit
// timestamp from the coordination service's counter when the set is taken.
// Each call is one coordination round trip, whatever the set size.

#ifndef LOGBASE_COORD_LOCK_MANAGER_H_
#define LOGBASE_COORD_LOCK_MANAGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/coord/coordination_service.h"
#include "src/util/slice.h"

namespace logbase::coord {

class LockManager {
 public:
  explicit LockManager(CoordinationService* coord);

  /// Takes the exclusive locks for every key in `keys` on behalf of `owner`
  /// (an opaque transaction identity), all or none. When `owner` holds them
  /// all, returns the commit timestamp drawn in the same round trip; when
  /// another owner holds any of them, returns nullopt, creating no lock node
  /// and drawing no timestamp. Re-entrant: keys `owner` already holds count
  /// as taken.
  std::optional<uint64_t> TryLock(SessionId session,
                                  const std::vector<std::string>& keys,
                                  const std::string& owner, int client_node);

  /// Releases every lock in `keys` that `owner` holds; the others are left
  /// alone.
  void Unlock(const std::vector<std::string>& keys, const std::string& owner,
              int client_node);

  /// Current holder of the lock, or NotFound.
  Result<std::string> Holder(const Slice& key) const;

  /// Lock-node path for `key` (keys are hex-escaped into one path segment).
  static std::string LockPath(const Slice& key);

 private:
  static constexpr const char* kLockRoot = "/locks";

  CoordinationService* coord_;
};

}  // namespace logbase::coord

#endif  // LOGBASE_COORD_LOCK_MANAGER_H_

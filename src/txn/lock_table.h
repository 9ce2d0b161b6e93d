// A transaction's distributed write locks for MVOCC validation (paper
// §3.7.1), kept as one sorted, deduplicated set and taken all-or-nothing:
// a holder never waits for part of its set while holding the rest, so
// acquisition cannot deadlock. The round trip that takes the set also
// draws the commit timestamp. RAII: the set releases on destruction, off
// the caller's critical path.

#ifndef LOGBASE_TXN_LOCK_TABLE_H_
#define LOGBASE_TXN_LOCK_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/coord/lock_manager.h"
#include "src/txn/transaction.h"
#include "src/util/result.h"

namespace logbase::txn {

class OrderedLockSet {
 public:
  OrderedLockSet(coord::LockManager* locks, coord::SessionId session,
                 std::string owner, int client_node);
  ~OrderedLockSet();

  OrderedLockSet(const OrderedLockSet&) = delete;
  OrderedLockSet& operator=(const OrderedLockSet&) = delete;

  /// Acquires every cell's lock with one all-or-nothing call, retrying the
  /// whole set up to `max_attempts` times while another owner holds any of
  /// them (the paper pre-claims until all locks are held; the bound guards
  /// against a crashed holder). Returns the commit timestamp drawn by the
  /// call that took the set; failed attempts draw none.
  Result<uint64_t> AcquireAll(const std::vector<TxnCell>& cells,
                              int max_attempts = 1000);

  /// Releases everything held (also run by the destructor). The release is
  /// charged on its own clock starting at the caller's: the network and
  /// the coordinator pay for it, the caller does not wait for it.
  void ReleaseAll();

  bool holds_all() const { return holds_all_; }

 private:
  static std::string LockName(const TxnCell& cell);

  coord::LockManager* locks_;
  coord::SessionId session_;
  std::string owner_;
  int client_node_;
  std::vector<std::string> held_;
  bool holds_all_ = false;
};

}  // namespace logbase::txn

#endif  // LOGBASE_TXN_LOCK_TABLE_H_

// A transaction handle (paper §3.7): a snapshot timestamp fixed at Begin,
// the versions read (for MVOCC validation) and the buffered write set
// (persisted only at commit — there are no blind writes to the log from an
// uncommitted transaction).

#ifndef LOGBASE_TXN_TRANSACTION_H_
#define LOGBASE_TXN_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <string>

namespace logbase::txn {

/// Identifies one record cell a transaction touched. Ordered by record key
/// first; the order only fixes how the read and write maps iterate. Locks
/// are taken as one all-or-nothing set (`OrderedLockSet` sorts its own
/// names), so no acquisition order is needed to prevent deadlock.
struct TxnCell {
  std::string tablet_uid;
  std::string key;

  bool operator<(const TxnCell& o) const {
    if (key != o.key) return key < o.key;
    return tablet_uid < o.tablet_uid;
  }
  bool operator==(const TxnCell& o) const {
    return key == o.key && tablet_uid == o.tablet_uid;
  }
};

struct BufferedWrite {
  bool is_delete = false;
  std::string value;
};

class Transaction {
 public:
  enum class State { kActive, kCommitted, kAborted };

  Transaction(uint64_t id, uint64_t snapshot_ts)
      : id_(id), snapshot_ts_(snapshot_ts) {}

  uint64_t id() const { return id_; }
  /// Reads observe the database as of this timestamp.
  uint64_t snapshot_ts() const { return snapshot_ts_; }
  State state() const { return state_; }
  void set_state(State s) { state_ = s; }
  /// Commit timestamp; 0 until committed.
  uint64_t commit_ts() const { return commit_ts_; }
  void set_commit_ts(uint64_t ts) { commit_ts_ = ts; }

  bool read_only() const { return writes_.empty(); }

  /// Version observed for each cell (0 = read as absent). First observation
  /// wins: validation compares against what the transaction actually saw.
  void RecordRead(const TxnCell& cell, uint64_t version) {
    read_versions_.emplace(cell, version);
  }
  const std::map<TxnCell, uint64_t>& read_versions() const {
    return read_versions_;
  }

  void BufferWrite(const TxnCell& cell, BufferedWrite write) {
    writes_[cell] = std::move(write);
  }
  const std::map<TxnCell, BufferedWrite>& writes() const { return writes_; }

  /// The buffered write for a cell, if any (read-your-own-writes).
  const BufferedWrite* FindWrite(const TxnCell& cell) const {
    auto it = writes_.find(cell);
    return it == writes_.end() ? nullptr : &it->second;
  }

  /// The version this transaction saw for `cell`, if recorded.
  const uint64_t* FindReadVersion(const TxnCell& cell) const {
    auto it = read_versions_.find(cell);
    return it == read_versions_.end() ? nullptr : &it->second;
  }

 private:
  const uint64_t id_;
  const uint64_t snapshot_ts_;
  State state_ = State::kActive;
  uint64_t commit_ts_ = 0;
  std::map<TxnCell, uint64_t> read_versions_;
  std::map<TxnCell, BufferedWrite> writes_;
};

}  // namespace logbase::txn

#endif  // LOGBASE_TXN_TRANSACTION_H_

#include "src/txn/lock_table.h"

#include <algorithm>
#include <thread>

#include "src/sim/sim_context.h"

namespace logbase::txn {

OrderedLockSet::OrderedLockSet(coord::LockManager* locks,
                               coord::SessionId session, std::string owner,
                               int client_node)
    : locks_(locks),
      session_(session),
      owner_(std::move(owner)),
      client_node_(client_node) {}

OrderedLockSet::~OrderedLockSet() { ReleaseAll(); }

std::string OrderedLockSet::LockName(const TxnCell& cell) {
  std::string name = cell.tablet_uid;
  name.push_back('\0');
  name += cell.key;
  return name;
}

Result<uint64_t> OrderedLockSet::AcquireAll(
    const std::vector<TxnCell>& cells, int max_attempts) {
  std::vector<std::string> names;
  names.reserve(cells.size());
  for (const TxnCell& cell : cells) names.push_back(LockName(cell));
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (int attempt = 0; attempt < max_attempts; attempt++) {
    if (auto stamp = locks_->TryLock(session_, names, owner_, client_node_)) {
      held_ = std::move(names);
      holds_all_ = true;
      return *stamp;
    }
    // Another validating transaction holds part of the set. It holds its
    // whole set and waits for none, so it finishes without us.
    std::this_thread::yield();
  }
  return Status::Busy("could not acquire the write lock set");
}

void OrderedLockSet::ReleaseAll() {
  if (!held_.empty()) {
    sim::SimContext* ctx = sim::SimContext::Current();
    sim::SimContext release(ctx != nullptr ? ctx->now() : 0);
    sim::SimContext::Scope scope(ctx != nullptr ? &release : nullptr);
    locks_->Unlock(held_, owner_, client_node_);
  }
  held_.clear();
  holds_all_ = false;
}

}  // namespace logbase::txn

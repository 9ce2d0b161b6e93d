#include "src/coord/lock_manager.h"

namespace logbase::coord {

namespace {

std::string HexEscape(const Slice& key) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(key.size() * 2);
  for (size_t i = 0; i < key.size(); i++) {
    unsigned char c = static_cast<unsigned char>(key[i]);
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

}  // namespace

LockManager::LockManager(CoordinationService* coord) : coord_(coord) {
  // The lock root is shared infrastructure; create it eagerly.
  if (!coord_->znodes()->Exists(kLockRoot)) {
    // Racing constructors both see "missing"; the loser's create fails
    // on "exists", which is the state we wanted.
    (void)coord_->znodes()->Create(0, kLockRoot, "", CreateMode::kPersistent);
  }
}

std::string LockManager::LockPath(const Slice& key) {
  return std::string(kLockRoot) + "/" + HexEscape(key);
}

std::string LockManager::CellName(const Slice& tablet_uid,
                                  const Slice& row_key) {
  std::string name = tablet_uid.ToString();
  name.push_back('\0');
  name.append(row_key.data(), row_key.size());
  return name;
}

namespace {

std::vector<std::string> LockPaths(const std::vector<std::string>& keys) {
  std::vector<std::string> paths;
  paths.reserve(keys.size());
  for (const std::string& key : keys) {
    paths.push_back(LockManager::LockPath(Slice(key)));
  }
  return paths;
}

}  // namespace

std::optional<uint64_t> LockManager::TryLock(
    SessionId session, const std::vector<std::string>& keys,
    const std::string& owner, int client_node) {
  return coord_->CreateAllAndStamp(session, LockPaths(keys), owner,
                                   CreateMode::kEphemeral, client_node);
}

void LockManager::Unlock(const std::vector<std::string>& keys,
                         const std::string& owner, int client_node) {
  coord_->ChargeRoundTrip(client_node);
  coord_->znodes()->DeleteAll(LockPaths(keys), owner);
}

Result<std::string> LockManager::Holder(const Slice& key) const {
  return coord_->znodes()->Get(LockPath(key));
}

}  // namespace logbase::coord

#include "src/coord/znode_tree.h"

#include <cstdio>

namespace logbase::coord {

std::string ZnodeTree::ParentOf(const std::string& path) {
  size_t pos = path.rfind('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

bool ZnodeTree::ValidPath(const std::string& path) {
  return !path.empty() && path[0] == '/' &&
         (path.size() == 1 || path.back() != '/');
}

SessionId ZnodeTree::CreateSession() {
  MutexLock l(mu_);
  SessionId id = next_session_++;
  sessions_.insert(id);
  return id;
}

bool ZnodeTree::SessionAlive(SessionId session) const {
  MutexLock l(mu_);
  return sessions_.count(session) > 0;
}

void ZnodeTree::CloseSession(SessionId session) {
  MutexLock l(mu_);
  if (sessions_.erase(session) == 0) return;
  // Collect this session's ephemerals, then delete them.
  std::vector<std::string> to_delete;
  for (const auto& [path, node] : nodes_) {
    if ((node.mode == CreateMode::kEphemeral ||
         node.mode == CreateMode::kEphemeralSequential) &&
        node.owner == session) {
      to_delete.push_back(path);
    }
  }
  // Delete deepest-first so children go before parents. A failure here
  // means an ephemeral gained children after collection; those nodes
  // simply outlive the session.
  for (auto it = to_delete.rbegin(); it != to_delete.rend(); ++it) {
    (void)DeleteLocked(*it);
  }
}

Result<std::string> ZnodeTree::Create(SessionId session,
                                      const std::string& path,
                                      const std::string& data,
                                      CreateMode mode) {
  MutexLock l(mu_);
  if (!ValidPath(path)) {
    return Status::InvalidArgument("bad znode path: " + path);
  }
  if ((mode == CreateMode::kEphemeral ||
       mode == CreateMode::kEphemeralSequential) &&
      sessions_.count(session) == 0) {
    return Status::InvalidArgument("ephemeral create with dead session");
  }
  std::string parent = ParentOf(path);
  if (parent != "/" && nodes_.count(parent) == 0) {
    return Status::NotFound("parent znode missing: " + parent);
  }

  std::string actual = path;
  if (mode == CreateMode::kPersistentSequential ||
      mode == CreateMode::kEphemeralSequential) {
    uint64_t seq = 0;
    if (parent == "/") {
      seq = root_sequence_counter_++;
    } else {
      seq = nodes_[parent].next_sequence++;
    }
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%010llu",
                  static_cast<unsigned long long>(seq));
    actual += buf;
  }

  if (nodes_.count(actual) > 0) {
    return Status::InvalidArgument("znode exists: " + actual);
  }
  Znode node;
  node.data = data;
  node.mode = mode;
  node.owner = session;
  nodes_[actual] = std::move(node);
  return actual;
}

Status ZnodeTree::CreateAll(SessionId session,
                            const std::vector<std::string>& paths,
                            const std::string& data, CreateMode mode) {
  if (mode == CreateMode::kPersistentSequential ||
      mode == CreateMode::kEphemeralSequential) {
    return Status::InvalidArgument("sequential create in a multi");
  }
  MutexLock l(mu_);
  if (mode == CreateMode::kEphemeral && sessions_.count(session) == 0) {
    return Status::InvalidArgument("ephemeral create with dead session");
  }
  // Check every path before creating any, so a failure changes nothing.
  std::vector<const std::string*> missing;
  for (const std::string& path : paths) {
    if (!ValidPath(path)) {
      return Status::InvalidArgument("bad znode path: " + path);
    }
    std::string parent = ParentOf(path);
    if (parent != "/" && nodes_.count(parent) == 0) {
      return Status::NotFound("parent znode missing: " + parent);
    }
    auto it = nodes_.find(path);
    if (it == nodes_.end()) {
      missing.push_back(&path);
    } else if (it->second.data != data) {
      return Status::InvalidArgument("znode exists: " + path);
    }
  }
  // A path listed twice is created once.
  for (const std::string* path : missing) {
    nodes_.emplace(*path, Znode{data, mode, session, 0});
  }
  return Status::OK();
}

Result<std::string> ZnodeTree::Get(const std::string& path) const {
  MutexLock l(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound(path);
  return it->second.data;
}

Status ZnodeTree::Set(const std::string& path, const std::string& data) {
  MutexLock l(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound(path);
  it->second.data = data;
  return Status::OK();
}

bool ZnodeTree::HasChildrenLocked(const std::string& path) const {
  std::string prefix = path == "/" ? "/" : path + "/";
  auto it = nodes_.lower_bound(prefix);
  return it != nodes_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
}

Status ZnodeTree::DeleteLocked(const std::string& path) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) return Status::NotFound(path);
  if (HasChildrenLocked(path)) {
    return Status::InvalidArgument("znode has children: " + path);
  }
  nodes_.erase(it);
  return Status::OK();
}

Status ZnodeTree::Delete(const std::string& path) {
  MutexLock l(mu_);
  return DeleteLocked(path);
}

void ZnodeTree::DeleteAll(const std::vector<std::string>& paths,
                          const std::string& data) {
  MutexLock l(mu_);
  for (const std::string& path : paths) {
    auto it = nodes_.find(path);
    if (it != nodes_.end() && it->second.data == data) {
      (void)DeleteLocked(path);
    }
  }
}

bool ZnodeTree::Exists(const std::string& path) const {
  MutexLock l(mu_);
  return nodes_.count(path) > 0;
}

Result<std::vector<std::string>> ZnodeTree::GetChildren(
    const std::string& path) const {
  MutexLock l(mu_);
  if (path != "/" && nodes_.count(path) == 0) return Status::NotFound(path);
  std::string prefix = path == "/" ? "/" : path + "/";
  std::vector<std::string> children;
  for (auto it = nodes_.lower_bound(prefix);
       it != nodes_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    std::string rest = it->first.substr(prefix.size());
    if (rest.find('/') == std::string::npos) children.push_back(rest);
  }
  return children;
}

}  // namespace logbase::coord

#include "src/index/blink_tree.h"

#include <algorithm>
#include <cassert>

#include "src/obs/metrics.h"
#include "src/sim/costs.h"

namespace logbase::index {

namespace {

obs::HistogramMetric* ProbeDepth() {
  static obs::HistogramMetric* h =
      obs::MetricsRegistry::Global().histogram("index.probe.depth");
  return h;
}

obs::Counter* LatchRetries() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("index.latch.retries");
  return c;
}

}  // namespace

namespace {
/// Max entries per node before splitting.
constexpr size_t kNodeCapacity = 64;
}  // namespace

struct BlinkTree::CompositeKey {
  std::string key;
  uint64_t ts = 0;
};

/// Composite ordering: key ascending, timestamp DESCENDING (newest version
/// of a key first).
static int CompareCK(const BlinkTree::CompositeKey& a,
                     const BlinkTree::CompositeKey& b) {
  int r = Slice(a.key).compare(Slice(b.key));
  if (r != 0) return r;
  if (a.ts > b.ts) return -1;
  if (a.ts < b.ts) return +1;
  return 0;
}

struct BlinkTree::Node {
  explicit Node(bool leaf, int lvl) : is_leaf(leaf), level(lvl) {}

  mutable std::mutex mu;
  const bool is_leaf;
  const int level;  // 0 = leaf
  std::vector<CompositeKey> keys;  // leaf: entries; internal: separators
  std::vector<log::LogPtr> ptrs;   // leaf only, parallel to keys
  std::vector<Node*> children;     // internal only: keys.size() + 1
  Node* right = nullptr;           // Lehman–Yao right-link
  bool has_high_key = false;
  CompositeKey high_key;           // inclusive bound when has_high_key
};

namespace {

/// First position with keys[pos] >= target.
size_t LowerBound(const std::vector<BlinkTree::CompositeKey>& keys,
                  const BlinkTree::CompositeKey& target) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareCK(keys[mid], target) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BlinkTree::BlinkTree() {
  root_.store(NewNode(/*is_leaf=*/true, /*level=*/0));
}

BlinkTree::~BlinkTree() = default;

BlinkTree::Node* BlinkTree::NewNode(bool is_leaf, int level) {
  auto node = std::make_unique<Node>(is_leaf, level);
  Node* raw = node.get();
  MutexLock l(alloc_mu_);
  all_nodes_.push_back(std::move(node));
  return raw;
}

int BlinkTree::Height() const { return root_.load()->level + 1; }

BlinkTree::Node* BlinkTree::DescendToLeaf(const CompositeKey& target,
                                          std::vector<Node*>* path) const {
  Node* n = root_.load(std::memory_order_acquire);
  int depth = 0;
  uint64_t chases = 0;
  while (true) {
    depth++;
    n->mu.lock();
    while (n->has_high_key && CompareCK(target, n->high_key) > 0) {
      Node* r = n->right;
      n->mu.unlock();
      n = r;
      n->mu.lock();
      chases++;
    }
    if (n->is_leaf) {
      n->mu.unlock();
      ProbeDepth()->Observe(depth);
      if (chases != 0) LatchRetries()->Add(chases);
      return n;
    }
    if (path != nullptr) path->push_back(n);
    size_t i = LowerBound(n->keys, target);
    Node* child = (i < n->keys.size()) ? n->children[i] : n->children.back();
    n->mu.unlock();
    n = child;
  }
}

BlinkTree::Node* BlinkTree::FindParentAtLevel(const CompositeKey& key,
                                              int level) const {
  Node* n = root_.load(std::memory_order_acquire);
  while (true) {
    n->mu.lock();
    while (n->has_high_key && CompareCK(key, n->high_key) > 0) {
      Node* r = n->right;
      n->mu.unlock();
      n = r;
      n->mu.lock();
    }
    if (n->level == level) {
      n->mu.unlock();
      return n;
    }
    assert(!n->is_leaf && n->level > level);
    size_t i = LowerBound(n->keys, key);
    Node* child = (i < n->keys.size()) ? n->children[i] : n->children.back();
    n->mu.unlock();
    n = child;
  }
}

BlinkTree::Node* BlinkTree::SplitLocked(Node* node, CompositeKey* separator) {
  Node* right = NewNode(node->is_leaf, node->level);
  size_t mid = node->keys.size() / 2;

  if (node->is_leaf) {
    // Left keeps [0, mid); right takes [mid, end); separator is left's last
    // remaining key (leaf high keys are inclusive of stored entries).
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->ptrs.assign(node->ptrs.begin() + mid, node->ptrs.end());
    node->keys.resize(mid);
    node->ptrs.resize(mid);
    *separator = node->keys.back();
  } else {
    // Internal: keys[mid] is promoted (removed from both halves).
    *separator = node->keys[mid];
    right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
    right->children.assign(node->children.begin() + mid + 1,
                           node->children.end());
    node->keys.resize(mid);
    node->children.resize(mid + 1);
  }

  right->right = node->right;
  right->has_high_key = node->has_high_key;
  right->high_key = node->high_key;
  node->right = right;
  node->has_high_key = true;
  node->high_key = *separator;
  return right;
}

void BlinkTree::InsertIntoParent(std::vector<Node*>* path, int child_level,
                                 const CompositeKey& separator,
                                 Node* new_child) {
  // NOTE: `new_child`'s left sibling (the split node) covers keys <=
  // separator; new_child covers the range above it.
  int parent_level = child_level + 1;

  Node* parent = nullptr;
  // The last path entry recorded at parent_level is the best hint.
  for (auto it = path->rbegin(); it != path->rend(); ++it) {
    if ((*it)->level == parent_level) {
      parent = *it;
      break;
    }
  }
  if (parent == nullptr) {
    // The split node may have been the root: grow the tree.
    MutexLock l(root_change_mu_);
    Node* root = root_.load(std::memory_order_acquire);
    if (root->level == child_level) {
      // The split node is the (old) root — but under Lehman–Yao the root
      // pointer may lag; the old root is the leftmost node at child_level,
      // which is exactly `root` here.
      Node* new_root = NewNode(/*is_leaf=*/false, parent_level);
      new_root->keys.push_back(separator);
      new_root->children.push_back(root);
      new_root->children.push_back(new_child);
      root_.store(new_root, std::memory_order_release);
      return;
    }
    // Someone else grew the tree already; find the real parent below.
    parent = FindParentAtLevel(separator, parent_level);
  }

  parent->mu.lock();
  while (parent->has_high_key &&
         CompareCK(separator, parent->high_key) > 0) {
    Node* r = parent->right;
    parent->mu.unlock();
    parent = r;
    parent->mu.lock();
  }
  size_t pos = LowerBound(parent->keys, separator);
  parent->keys.insert(parent->keys.begin() + pos, separator);
  parent->children.insert(parent->children.begin() + pos + 1, new_child);

  if (parent->keys.size() > kNodeCapacity) {
    CompositeKey up_separator;
    Node* new_right = SplitLocked(parent, &up_separator);
    parent->mu.unlock();
    InsertIntoParent(path, parent_level, up_separator, new_right);
  } else {
    parent->mu.unlock();
  }
}

Status BlinkTree::Insert(const Slice& key, uint64_t timestamp,
                         const log::LogPtr& ptr) {
  sim::ChargeCpu(sim::costs::kIndexInsertUs);
  CompositeKey ck{key.ToString(), timestamp};
  std::vector<Node*> path;
  Node* leaf = DescendToLeaf(ck, &path);

  leaf->mu.lock();
  while (leaf->has_high_key && CompareCK(ck, leaf->high_key) > 0) {
    Node* r = leaf->right;
    leaf->mu.unlock();
    leaf = r;
    leaf->mu.lock();
  }
  size_t pos = LowerBound(leaf->keys, ck);
  if (pos < leaf->keys.size() && CompareCK(leaf->keys[pos], ck) == 0) {
    leaf->ptrs[pos] = ptr;  // upsert (recovery redo)
    leaf->mu.unlock();
    return Status::OK();
  }
  leaf->keys.insert(leaf->keys.begin() + pos, ck);
  leaf->ptrs.insert(leaf->ptrs.begin() + pos, ptr);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
  memory_bytes_.fetch_add(ck.key.size() + 40, std::memory_order_relaxed);

  if (leaf->keys.size() > kNodeCapacity) {
    CompositeKey separator;
    Node* new_right = SplitLocked(leaf, &separator);
    leaf->mu.unlock();
    InsertIntoParent(&path, /*child_level=*/0, separator, new_right);
  } else {
    leaf->mu.unlock();
  }
  return Status::OK();
}

Status BlinkTree::UpdateIfPresent(const Slice& key, uint64_t timestamp,
                                  const log::LogPtr& ptr) {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  CompositeKey ck{key.ToString(), timestamp};
  Node* leaf = DescendToLeaf(ck, nullptr);
  leaf->mu.lock();
  while (leaf->has_high_key && CompareCK(ck, leaf->high_key) > 0) {
    Node* r = leaf->right;
    leaf->mu.unlock();
    leaf = r;
    leaf->mu.lock();
  }
  size_t pos = LowerBound(leaf->keys, ck);
  // The exact entry may sit in a right sibling after empty-suffix erases.
  while (pos >= leaf->keys.size()) {
    Node* r = leaf->right;
    leaf->mu.unlock();
    if (r == nullptr) return Status::NotFound("version not indexed");
    leaf = r;
    leaf->mu.lock();
    pos = LowerBound(leaf->keys, ck);
  }
  if (CompareCK(leaf->keys[pos], ck) != 0) {
    leaf->mu.unlock();
    return Status::NotFound("version not indexed");
  }
  leaf->ptrs[pos] = ptr;
  leaf->mu.unlock();
  return Status::OK();
}

Result<IndexEntry> BlinkTree::GetAsOf(const Slice& key,
                                      uint64_t as_of) const {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  CompositeKey target{key.ToString(), as_of};
  Node* n = DescendToLeaf(target, nullptr);
  n->mu.lock();
  while (n->has_high_key && CompareCK(target, n->high_key) > 0) {
    Node* r = n->right;
    n->mu.unlock();
    n = r;
    n->mu.lock();
  }
  size_t pos = LowerBound(n->keys, target);
  while (pos >= n->keys.size()) {
    if (n->right == nullptr) {
      n->mu.unlock();
      return Status::NotFound("key not in index");
    }
    Node* r = n->right;
    n->mu.unlock();
    n = r;
    n->mu.lock();
    pos = LowerBound(n->keys, target);
  }
  if (Slice(n->keys[pos].key) != key) {
    n->mu.unlock();
    return Status::NotFound("key not in index");
  }
  IndexEntry entry{n->keys[pos].key, n->keys[pos].ts, n->ptrs[pos]};
  n->mu.unlock();
  return entry;
}

Result<IndexEntry> BlinkTree::GetLatest(const Slice& key) const {
  return GetAsOf(key, kLatest);
}

std::vector<IndexEntry> BlinkTree::GetAllVersions(const Slice& key) const {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  std::vector<IndexEntry> versions;
  CompositeKey target{key.ToString(), kLatest};
  Node* n = DescendToLeaf(target, nullptr);
  n->mu.lock();
  while (n->has_high_key && CompareCK(target, n->high_key) > 0) {
    Node* r = n->right;
    n->mu.unlock();
    n = r;
    n->mu.lock();
  }
  size_t pos = LowerBound(n->keys, target);
  while (true) {
    if (pos >= n->keys.size()) {
      Node* r = n->right;
      n->mu.unlock();
      if (r == nullptr) break;
      n = r;
      n->mu.lock();
      pos = 0;
      continue;
    }
    if (Slice(n->keys[pos].key) != key) {
      n->mu.unlock();
      break;
    }
    versions.push_back(
        IndexEntry{n->keys[pos].key, n->keys[pos].ts, n->ptrs[pos]});
    pos++;
  }
  return versions;
}

Status BlinkTree::RemoveAllVersions(const Slice& key) {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  CompositeKey first{key.ToString(), kLatest};
  CompositeKey last{key.ToString(), 0};
  Node* n = DescendToLeaf(first, nullptr);
  n->mu.lock();
  while (n->has_high_key && CompareCK(first, n->high_key) > 0) {
    Node* r = n->right;
    n->mu.unlock();
    n = r;
    n->mu.lock();
  }
  while (true) {
    size_t lo = LowerBound(n->keys, first);
    size_t hi = lo;
    while (hi < n->keys.size() && Slice(n->keys[hi].key) == key) hi++;
    if (hi > lo) {
      size_t removed = hi - lo;
      size_t bytes = removed * (key.size() + 40);
      n->keys.erase(n->keys.begin() + lo, n->keys.begin() + hi);
      n->ptrs.erase(n->ptrs.begin() + lo, n->ptrs.begin() + hi);
      num_entries_.fetch_sub(removed, std::memory_order_relaxed);
      memory_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    }
    // More versions can only live to the right when this node's bound does
    // not cover (key, ts=0), the last possible entry for the key.
    bool maybe_right = n->has_high_key && CompareCK(last, n->high_key) > 0;
    Node* r = n->right;
    n->mu.unlock();
    if (!maybe_right || r == nullptr) break;
    n = r;
    n->mu.lock();
  }
  return Status::OK();
}

std::vector<IndexEntry> BlinkTree::ScanRange(const Slice& start,
                                             const Slice& end,
                                             uint64_t as_of) const {
  std::vector<IndexEntry> result;
  CompositeKey target{start.ToString(), kLatest};
  Node* n = DescendToLeaf(target, nullptr);
  n->mu.lock();
  while (n->has_high_key && CompareCK(target, n->high_key) > 0) {
    Node* r = n->right;
    n->mu.unlock();
    n = r;
    n->mu.lock();
  }
  size_t pos = LowerBound(n->keys, target);
  std::string current_key;
  bool have_current = false;
  bool taken = false;
  // Dedup guard across node hops (entries can move right under us).
  CompositeKey last_seen;
  bool have_last_seen = false;
  while (true) {
    if (pos >= n->keys.size()) {
      Node* r = n->right;
      n->mu.unlock();
      if (r == nullptr) break;
      n = r;
      n->mu.lock();
      pos = 0;
      continue;
    }
    const CompositeKey& ck = n->keys[pos];
    if (!end.empty() && Slice(ck.key).compare(end) >= 0) {
      n->mu.unlock();
      break;
    }
    if (have_last_seen && CompareCK(ck, last_seen) <= 0) {
      pos++;
      continue;
    }
    last_seen = ck;
    have_last_seen = true;
    sim::ChargeCpu(sim::costs::kIndexNextUs);
    if (!have_current || ck.key != current_key) {
      current_key = ck.key;
      have_current = true;
      taken = false;
    }
    if (!taken && ck.ts <= as_of) {
      result.push_back(IndexEntry{ck.key, ck.ts, n->ptrs[pos]});
      taken = true;
    }
    pos++;
  }
  return result;
}

void BlinkTree::VisitAll(
    const std::function<void(const IndexEntry&)>& visitor) const {
  CompositeKey target{"", kLatest};
  Node* n = DescendToLeaf(target, nullptr);
  n->mu.lock();
  size_t pos = 0;
  CompositeKey last_seen;
  bool have_last_seen = false;
  while (true) {
    if (pos >= n->keys.size()) {
      Node* r = n->right;
      n->mu.unlock();
      if (r == nullptr) return;
      n = r;
      n->mu.lock();
      pos = 0;
      continue;
    }
    const CompositeKey& ck = n->keys[pos];
    if (have_last_seen && CompareCK(ck, last_seen) <= 0) {
      pos++;
      continue;
    }
    last_seen = ck;
    have_last_seen = true;
    visitor(IndexEntry{ck.key, ck.ts, n->ptrs[pos]});
    pos++;
  }
}

}  // namespace logbase::index

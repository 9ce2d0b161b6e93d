#include "src/index/blink_tree.h"

#include <cassert>
#include <optional>

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

/// The Lehman–Yao move-right: latches `n`, then follows right-links while
/// `target` lies past the latched node's high key. Returns the node that
/// covers `target`, latched; adds each hop to *chases when given.
BlinkTree::Node* MoveRight(BlinkTree::Node* n,
                           const BlinkTree::CompositeKey& target,
                           uint64_t* chases = nullptr) {
  n->mu.lock();
  while (n->has_high_key && CompareCK(target, n->high_key) > 0) {
    BlinkTree::Node* r = n->right;
    n->mu.unlock();
    n = r;
    n->mu.lock();
    if (chases != nullptr) ++*chases;
  }
  return n;
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

BlinkTree::Node* BlinkTree::Descend(const CompositeKey& target, int level,
                                    std::vector<Node*>* path) const {
  Node* n = root_.load(std::memory_order_acquire);
  int depth = 0;
  uint64_t chases = 0;
  while (true) {
    depth++;
    n = MoveRight(n, target, &chases);
    if (n->level == level) break;
    assert(!n->is_leaf && n->level > level);
    if (path != nullptr) path->push_back(n);
    size_t i = LowerBound(n->keys, target);
    Node* child = (i < n->keys.size()) ? n->children[i] : n->children.back();
    n->mu.unlock();
    n = child;
  }
  if (level == 0) {
    ProbeDepth()->Observe(depth);
    if (chases != 0) LatchRetries()->Add(chases);
  }
  return n;
}

template <typename Visit>
void BlinkTree::Walk(const CompositeKey& from, Visit&& visit) const {
  Node* n = Descend(from, /*level=*/0, /*path=*/nullptr);
  size_t pos = LowerBound(n->keys, from);
  // The hop guard: the last entry visited before a hop. Entries in the
  // right sibling that do not sort after it were seen already.
  CompositeKey last;
  bool have_last = false;
  while (true) {
    const size_t first = pos;
    for (; pos < n->keys.size(); pos++) {
      if (!visit(n->keys[pos], n->ptrs[pos])) {
        n->mu.unlock();
        return;
      }
    }
    if (pos > first) {
      last = n->keys.back();
      have_last = true;
    }
    Node* r = n->right;
    n->mu.unlock();
    if (r == nullptr) return;
    n = r;
    n->mu.lock();
    pos = 0;
    while (have_last && pos < n->keys.size() &&
           CompareCK(n->keys[pos], last) <= 0) {
      pos++;
    }
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
  if (parent != nullptr) {
    parent = MoveRight(parent, separator);
  } else {
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
    parent = Descend(separator, parent_level, /*path=*/nullptr);
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
  Node* leaf = Descend(ck, /*level=*/0, &path);
  size_t pos = LowerBound(leaf->keys, ck);
  if (pos < leaf->keys.size() && CompareCK(leaf->keys[pos], ck) == 0) {
    leaf->ptrs[pos] = ptr;  // upsert (recovery redo)
    leaf->mu.unlock();
    return Status::OK();
  }
  leaf->keys.insert(leaf->keys.begin() + pos, ck);
  leaf->ptrs.insert(leaf->ptrs.begin() + pos, ptr);
  num_entries_.fetch_add(1, std::memory_order_relaxed);

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
  CompositeKey target{key.ToString(), timestamp};
  bool found = false;
  // The walk, not the leaf alone: after empty-suffix erases the exact entry
  // may sit in a right sibling.
  Walk(target, [&](const CompositeKey& ck, log::LogPtr& entry_ptr) {
    found = CompareCK(ck, target) == 0;
    if (found) entry_ptr = ptr;
    return false;
  });
  return found ? Status::OK() : Status::NotFound("version not indexed");
}

Result<IndexEntry> BlinkTree::GetAsOf(const Slice& key,
                                      uint64_t as_of) const {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  std::optional<IndexEntry> found;
  Walk(CompositeKey{key.ToString(), as_of},
       [&](const CompositeKey& ck, const log::LogPtr& ptr) {
         if (Slice(ck.key) == key) found = IndexEntry{ck.key, ck.ts, ptr};
         return false;
       });
  if (!found) return Status::NotFound("key not in index");
  return std::move(*found);
}

std::vector<IndexEntry> BlinkTree::GetAllVersions(const Slice& key) const {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  std::vector<IndexEntry> versions;
  Walk(CompositeKey{key.ToString(), kLatest},
       [&](const CompositeKey& ck, const log::LogPtr& ptr) {
         if (Slice(ck.key) != key) return false;
         versions.push_back(IndexEntry{ck.key, ck.ts, ptr});
         return true;
       });
  return versions;
}

Status BlinkTree::RemoveAllVersions(const Slice& key) {
  sim::ChargeCpu(sim::costs::kIndexLookupUs);
  CompositeKey first{key.ToString(), kLatest};
  CompositeKey last{key.ToString(), 0};
  Node* n = Descend(first, /*level=*/0, /*path=*/nullptr);
  while (true) {
    size_t lo = LowerBound(n->keys, first);
    size_t hi = lo;
    while (hi < n->keys.size() && Slice(n->keys[hi].key) == key) hi++;
    if (hi > lo) {
      n->keys.erase(n->keys.begin() + lo, n->keys.begin() + hi);
      n->ptrs.erase(n->ptrs.begin() + lo, n->ptrs.begin() + hi);
      num_entries_.fetch_sub(hi - lo, std::memory_order_relaxed);
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
  NewestVisible newest(as_of);
  Walk(CompositeKey{start.ToString(), kLatest},
       [&](const CompositeKey& ck, const log::LogPtr& ptr) {
         if (!end.empty() && Slice(ck.key).compare(end) >= 0) return false;
         sim::ChargeCpu(sim::costs::kIndexNextUs);
         if (newest.Admit(Slice(ck.key), ck.ts)) {
           result.push_back(IndexEntry{ck.key, ck.ts, ptr});
         }
         return true;
       });
  return result;
}

void BlinkTree::VisitAll(
    const std::function<void(const IndexEntry&)>& visitor) const {
  Walk(CompositeKey{"", kLatest},
       [&](const CompositeKey& ck, const log::LogPtr& ptr) {
         visitor(IndexEntry{ck.key, ck.ts, ptr});
         return true;
       });
}

}  // namespace logbase::index

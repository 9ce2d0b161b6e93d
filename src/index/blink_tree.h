// A Lehman–Yao B-link tree over composite (key, timestamp) index entries —
// the paper's in-memory multiversion index (§3.5: "The indexes resemble
// Blink-trees to provide efficient key range search and concurrency
// support"). Timestamps order *descending* within a key so the newest
// version of a key is its first entry and "latest version <= t" is a single
// forward seek.
//
// Concurrency: per-node mutexes, no lock coupling on descent; every
// traversal is prepared to chase right-links because a node may split
// underneath it (the Lehman–Yao protocol). One helper latches a node and
// moves right until the node covers its target, and one descent built on it
// reaches a leaf (every operation) or a parent level (split propagation).
// Every read, and the pointer swing of UpdateIfPresent, is a visitor over one
// forward walk from that leaf across right-links. Nodes are never reclaimed
// until the tree is destroyed, so lock-free readers of stale pointers stay
// safe.

#ifndef LOGBASE_INDEX_BLINK_TREE_H_
#define LOGBASE_INDEX_BLINK_TREE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/index/multiversion_index.h"

#include "src/util/ordered_mutex.h"

namespace logbase::index {

class BlinkTree : public MultiVersionIndex {
 public:
  BlinkTree();
  ~BlinkTree() override;

  BlinkTree(const BlinkTree&) = delete;
  BlinkTree& operator=(const BlinkTree&) = delete;

  Status Insert(const Slice& key, uint64_t timestamp,
                const log::LogPtr& ptr) override;
  Status UpdateIfPresent(const Slice& key, uint64_t timestamp,
                         const log::LogPtr& ptr) override;
  Result<IndexEntry> GetAsOf(const Slice& key, uint64_t as_of) const override;
  std::vector<IndexEntry> GetAllVersions(const Slice& key) const override;
  Status RemoveAllVersions(const Slice& key) override;
  std::vector<IndexEntry> ScanRange(const Slice& start, const Slice& end,
                                    uint64_t as_of) const override;
  void VisitAll(
      const std::function<void(const IndexEntry&)>& visitor) const override;
  size_t num_entries() const override {
    return num_entries_.load(std::memory_order_relaxed);
  }

  /// Tree height (test/diagnostic aid).
  int Height() const;

  // Implementation types; public so file-local helpers in the .cc can name
  // them, not part of the supported API.
  struct Node;
  struct CompositeKey;

 private:
  Node* NewNode(bool is_leaf, int level);
  /// The one descent: from the root to the node at `level` (0 = leaf) that
  /// covers `target`, returned latched. Fills `path`, when given, with the
  /// node visited at each level above it (hints for split propagation). A
  /// leaf descent records its depth and right-link chases.
  Node* Descend(const CompositeKey& target, int level,
                std::vector<Node*>* path) const;
  /// The one forward walk: visits leaf entries in (key asc, timestamp desc)
  /// order from the first at or after `from`, each under its leaf's latch,
  /// as visit(const CompositeKey&, log::LogPtr&), until it returns false.
  template <typename Visit>
  void Walk(const CompositeKey& from, Visit&& visit) const;
  /// Inserts separator/child into the parent level after a split.
  void InsertIntoParent(std::vector<Node*>* path, int child_level,
                        const CompositeKey& separator, Node* new_child);
  /// Splits `node` (exclusively locked) and returns the new right sibling;
  /// the separator (left node's new high key) is stored in *separator.
  Node* SplitLocked(Node* node, CompositeKey* separator);

  std::atomic<Node*> root_;
  // Serializes root replacement (the root_ atomic itself is lock-free to
  // read; the mutex only prevents two concurrent root splits).
  mutable OrderedMutex root_change_mu_{lockrank::kBlinkRoot,
                                     "index.blink.root"};
  mutable OrderedMutex alloc_mu_{lockrank::kBlinkAlloc,
                               "index.blink.alloc"};
  // Node ownership ledger (nodes are never reclaimed while the tree lives);
  // traversals use raw Node* without this lock by design.
  std::vector<std::unique_ptr<Node>> all_nodes_ GUARDED_BY(alloc_mu_);
  std::atomic<size_t> num_entries_{0};
};

}  // namespace logbase::index

#endif  // LOGBASE_INDEX_BLINK_TREE_H_

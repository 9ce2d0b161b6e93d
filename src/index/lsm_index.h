// MultiVersionIndex backed by the LSM-tree: the paper's option for scaling a
// tablet server's index beyond memory (§3.5) and the index of the LRS
// baseline (§4.6). Composite (key, timestamp) entries are stored as
// order-preserving encoded LSM user keys whose values are encoded LogPtrs.

#ifndef LOGBASE_INDEX_LSM_INDEX_H_
#define LOGBASE_INDEX_LSM_INDEX_H_

#include <atomic>
#include <memory>
#include <string>

#include "src/index/multiversion_index.h"
#include "src/lsm/lsm_tree.h"

namespace logbase::index {

class LsmIndex : public MultiVersionIndex {
 public:
  /// Creates or reopens an LSM index rooted at `dir` on `fs`.
  static Result<std::unique_ptr<LsmIndex>> Open(lsm::LsmOptions options,
                                                FileSystem* fs,
                                                std::string dir);

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
  /// Exact live-entry count (O(n): walks the tree; used by checkpoints and
  /// diagnostics, not the data path).
  size_t num_entries() const override;

  lsm::LsmTree* tree() { return tree_.get(); }

 private:
  explicit LsmIndex(std::unique_ptr<lsm::LsmTree> tree)
      : tree_(std::move(tree)) {}

  /// The one seek-and-walk loop: visits entries in (key asc, timestamp
  /// desc) order from the first at or after the encoded composite key
  /// `from` (from the first entry when `from` is empty) until `visit`
  /// returns false. A malformed entry is skipped.
  template <typename Visit>
  void Walk(const std::string& from, Visit&& visit) const;

  std::unique_ptr<lsm::LsmTree> tree_;
};

}  // namespace logbase::index

#endif  // LOGBASE_INDEX_LSM_INDEX_H_

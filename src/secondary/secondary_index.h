// Secondary indexes — the paper's stated future work (§5: "design and
// implementation of efficient secondary indexes ... for LogBase").
//
// A secondary index maps an attribute value extracted from the record to the
// primary keys holding it. It reuses the multiversion B-link tree with
// composite entries (secondary key ⊕ primary key, timestamp), so lookups
// scan a secondary-key prefix and historical queries come for free. Lookups
// return *candidates*; the tablet server verifies each against the base
// record at the requested time (an index entry may be stale after the
// record's attribute changed), which keeps maintenance cheap and correct.
// Like the primary index, it lives in memory and is rebuilt at recovery.

#ifndef LOGBASE_SECONDARY_SECONDARY_INDEX_H_
#define LOGBASE_SECONDARY_SECONDARY_INDEX_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/index/blink_tree.h"
#include "src/util/result.h"

#include "src/util/ordered_mutex.h"

namespace logbase::secondary {

/// Extracts the secondary attribute from a record value; nullopt = record
/// not indexed.
using KeyExtractor =
    std::function<std::optional<std::string>(const Slice& value)>;

/// A candidate match from a secondary lookup.
struct SecondaryMatch {
  std::string secondary_key;
  std::string primary_key;
  uint64_t timestamp = 0;
};

class SecondaryIndex {
 public:
  SecondaryIndex(std::string name, KeyExtractor extractor);

  const std::string& name() const { return name_; }
  const KeyExtractor& extractor() const { return extractor_; }

  /// Index maintenance — invoked on every committed write / delete of the
  /// base tablet.
  Status OnWrite(const Slice& primary_key, uint64_t timestamp,
                 const Slice& value);
  Status OnDelete(const Slice& primary_key);

  /// Candidate primary keys whose attribute equaled `secondary_key` at some
  /// point <= as_of (newest entry per (secondary, primary) pair). Callers
  /// verify candidates against the base record.
  std::vector<SecondaryMatch> Lookup(const Slice& secondary_key,
                                     uint64_t as_of = index::kLatest) const;

  /// Candidates over the secondary-key range [start, end).
  std::vector<SecondaryMatch> LookupRange(
      const Slice& start, const Slice& end,
      uint64_t as_of = index::kLatest) const;

  size_t num_entries() const { return tree_.num_entries(); }

 private:
  std::vector<SecondaryMatch> LookupRangeInternal_(const std::string& lo,
                                                   const std::string& hi,
                                                   uint64_t as_of) const;
  static std::string Prefix(const Slice& secondary);
  static std::string Composite(const Slice& secondary, const Slice& primary);
  static bool SplitComposite(const Slice& composite, std::string* secondary,
                             std::string* primary);

  const std::string name_;
  const KeyExtractor extractor_;
  index::BlinkTree tree_;  // internally synchronized (latch protocol)
  // Secondary keys ever indexed per primary key, so deletes can unindex.
  mutable OrderedMutex history_mu_{lockrank::kSecondaryHistory,
                                 "secondary.history"};
  std::map<std::string, std::set<std::string>> history_
      GUARDED_BY(history_mu_);
};

}  // namespace logbase::secondary

#endif  // LOGBASE_SECONDARY_SECONDARY_INDEX_H_

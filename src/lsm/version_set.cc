#include "src/lsm/version_set.h"

#include <algorithm>

namespace logbase::lsm {

VersionSet::VersionSet(const InternalKeyComparator* comparator,
                       int num_levels)
    : comparator_(comparator), num_levels_(num_levels), levels_(num_levels) {}

void VersionSet::SortLevel(int level) {
  if (level == 0) {
    std::sort(levels_[0].begin(), levels_[0].end(),
              [](const auto& a, const auto& b) {
                return a->number > b->number;  // newest first
              });
  } else {
    std::sort(levels_[level].begin(), levels_[level].end(),
              [this](const auto& a, const auto& b) {
                return comparator_->Compare(Slice(a->smallest),
                                            Slice(b->smallest)) < 0;
              });
  }
}

void VersionSet::AddFile(int level, std::shared_ptr<FileMeta> file) {
  MutexLock l(mu_);
  levels_[level].push_back(std::move(file));
  SortLevel(level);
}

void VersionSet::ApplyCompaction(
    int level, const std::vector<uint64_t>& removed_inputs,
    std::vector<std::shared_ptr<FileMeta>> outputs) {
  MutexLock l(mu_);
  auto remove_from = [&removed_inputs](
                         std::vector<std::shared_ptr<FileMeta>>* files) {
    files->erase(
        std::remove_if(files->begin(), files->end(),
                       [&removed_inputs](const auto& f) {
                         return std::find(removed_inputs.begin(),
                                          removed_inputs.end(),
                                          f->number) != removed_inputs.end();
                       }),
        files->end());
  };
  remove_from(&levels_[level]);
  if (level + 1 < num_levels()) {
    remove_from(&levels_[level + 1]);
    for (auto& out : outputs) levels_[level + 1].push_back(std::move(out));
    SortLevel(level + 1);
  } else {
    // Compacting the last level back into itself.
    for (auto& out : outputs) levels_[level].push_back(std::move(out));
    SortLevel(level);
  }
}

std::vector<std::shared_ptr<FileMeta>> VersionSet::LevelFiles(
    int level) const {
  MutexLock l(mu_);
  return levels_[level];
}

std::vector<std::shared_ptr<FileMeta>> VersionSet::Overlapping(
    int level, const Slice& begin, const Slice& end) const {
  MutexLock l(mu_);
  std::vector<std::shared_ptr<FileMeta>> result;
  for (const auto& f : levels_[level]) {
    bool before = !end.empty() &&
                  comparator_->Compare(Slice(f->smallest), end) > 0;
    bool after = !begin.empty() &&
                 comparator_->Compare(Slice(f->largest), begin) < 0;
    if (!before && !after) result.push_back(f);
  }
  return result;
}

int VersionSet::LevelFileCount(int level) const {
  MutexLock l(mu_);
  return static_cast<int>(levels_[level].size());
}

uint64_t VersionSet::TotalBytes() const {
  MutexLock l(mu_);
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const auto& f : level) total += f->file_size;
  }
  return total;
}

VersionSet::CompactionPick VersionSet::PickCompaction(
    int l0_trigger, uint64_t base_level_bytes) {
  MutexLock l(mu_);
  // Score each level; pick the worst offender.
  double best_score = 1.0;
  int best_level = -1;
  for (int level = 0; level + 1 <= num_levels() - 1; level++) {
    double score;
    if (level == 0) {
      score = static_cast<double>(levels_[0].size()) /
              static_cast<double>(l0_trigger);
    } else {
      uint64_t bytes = 0;
      for (const auto& f : levels_[level]) bytes += f->file_size;
      uint64_t target = base_level_bytes;
      for (int i = 1; i < level; i++) target *= 10;
      score = static_cast<double>(bytes) / static_cast<double>(target);
    }
    if (score >= best_score) {
      best_score = score;
      best_level = level;
    }
  }

  CompactionPick pick;
  if (best_level < 0) return pick;
  pick.level = best_level;
  if (best_level == 0) {
    // All of L0 (files overlap each other).
    pick.inputs = levels_[0];
  } else {
    // One file, round-robin-ish: the first (smallest key) keeps it simple
    // and deterministic.
    if (levels_[best_level].empty()) {
      pick.level = -1;
      return pick;
    }
    pick.inputs.push_back(levels_[best_level].front());
  }
  // Expand with overlapping files in the next level.
  std::string smallest, largest;
  for (const auto& f : pick.inputs) {
    if (smallest.empty() ||
        comparator_->Compare(Slice(f->smallest), Slice(smallest)) < 0) {
      smallest = f->smallest;
    }
    if (largest.empty() ||
        comparator_->Compare(Slice(f->largest), Slice(largest)) > 0) {
      largest = f->largest;
    }
  }
  if (best_level + 1 < num_levels()) {
    for (const auto& f : levels_[best_level + 1]) {
      bool before = comparator_->Compare(Slice(f->smallest), Slice(largest)) >
                    0;
      bool after = comparator_->Compare(Slice(f->largest), Slice(smallest)) <
                   0;
      if (!before && !after) pick.next_inputs.push_back(f);
    }
  }
  return pick;
}

bool VersionSet::IsBottomMost(int level, const Slice& begin,
                              const Slice& end) const {
  MutexLock l(mu_);
  for (int deeper = level + 1; deeper < num_levels(); deeper++) {
    for (const auto& f : levels_[deeper]) {
      bool before = !end.empty() &&
                    comparator_->Compare(Slice(f->smallest), end) > 0;
      bool after = !begin.empty() &&
                   comparator_->Compare(Slice(f->largest), begin) < 0;
      if (!before && !after) return false;
    }
  }
  return true;
}

std::vector<VersionSet::ManifestEntry> VersionSet::Snapshot() const {
  MutexLock l(mu_);
  std::vector<ManifestEntry> entries;
  for (int level = 0; level < num_levels(); level++) {
    for (const auto& f : levels_[level]) {
      entries.push_back(ManifestEntry{level, f->number, f->file_size,
                                      f->smallest, f->largest});
    }
  }
  return entries;
}

}  // namespace logbase::lsm

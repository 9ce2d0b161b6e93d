// Reader for one block produced by BlockBuilder: iterator with binary search
// over restart points.

#ifndef LOGBASE_SSTABLE_BLOCK_H_
#define LOGBASE_SSTABLE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/util/comparator.h"
#include "src/util/slice.h"

namespace logbase::sstable {

class Block {
 public:
  /// Takes ownership of the raw block contents (without the CRC trailer).
  explicit Block(std::string contents);

  size_t size() const { return data_.size(); }

  class Iter {
   public:
    Iter(const Block* block, const Comparator* cmp);

    bool Valid() const { return current_ < restarts_offset_; }
    /// Positions at the first entry with key >= target.
    void Seek(const Slice& target);
    void SeekToFirst();
    void Next();
    Slice key() const { return Slice(key_); }
    Slice value() const { return value_; }
    bool corrupted() const { return corrupted_; }

   private:
    uint32_t RestartPoint(uint32_t index) const;
    void SeekToRestart(uint32_t index);
    /// Decodes the entry at current_; false on corruption/end.
    bool ParseCurrent();

    const Block* block_;
    const Comparator* cmp_;
    uint32_t restarts_offset_;  // offset of the restart array
    uint32_t num_restarts_;
    uint32_t current_;     // offset of the current entry
    uint32_t next_;        // offset just past the current entry
    std::string key_;      // reconstructed full key
    Slice value_;
    bool corrupted_ = false;
  };

  std::unique_ptr<Iter> NewIterator(const Comparator* cmp) const {
    return std::make_unique<Iter>(this, cmp);
  }

 private:
  friend class Iter;
  std::string data_;
  uint32_t restarts_offset_ = 0;
  uint32_t num_restarts_ = 0;
};

}  // namespace logbase::sstable

#endif  // LOGBASE_SSTABLE_BLOCK_H_

// One tablet as hosted by a tablet server: the descriptor plus the
// per-column-group in-memory multiversion index and its persistence counter
// (paper §3.6.1: an update counter triggers merging the index out to an
// index file; here, the server's checkpoint file).

#ifndef LOGBASE_TABLET_TABLET_H_
#define LOGBASE_TABLET_TABLET_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/index/multiversion_index.h"
#include "src/tablet/schema.h"

namespace logbase::tablet {

class Tablet {
 public:
  Tablet(TabletDescriptor descriptor,
         std::unique_ptr<index::MultiVersionIndex> index)
      : descriptor_(std::move(descriptor)), index_(std::move(index)) {}

  Tablet(const Tablet&) = delete;
  Tablet& operator=(const Tablet&) = delete;

  const TabletDescriptor& descriptor() const { return descriptor_; }
  index::MultiVersionIndex* index() { return index_.get(); }
  const index::MultiVersionIndex* index() const { return index_.get(); }

  /// Updates since the index was last persisted (checkpoint trigger).
  uint64_t updates_since_persist() const {
    return updates_since_persist_.load(std::memory_order_relaxed);
  }
  void RecordUpdate() {
    updates_since_persist_.fetch_add(1, std::memory_order_relaxed);
  }
  void ResetUpdateCounter() {
    updates_since_persist_.store(0, std::memory_order_relaxed);
  }

  /// Instance id of the log this tablet was adopted from after a permanent
  /// server failure, or the owner's own instance.
  uint32_t source_instance() const { return source_instance_; }
  void set_source_instance(uint32_t instance) { source_instance_ = instance; }

  // -- Migration fencing --------------------------------------------------

  /// A sealed tablet rejects writes: migration seals the source before
  /// flushing the bounding checkpoint so no acked write can slip past the
  /// replay horizon. Reads keep working until the tablet is closed.
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }
  void Seal() { sealed_.store(true, std::memory_order_release); }
  void Unseal() { sealed_.store(false, std::memory_order_release); }

  // -- Load accounting (balance::LoadReport source) -----------------------

  struct LoadWindow {
    uint64_t read_ops = 0;
    uint64_t write_ops = 0;
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
  };
  void RecordRead(uint64_t bytes) {
    read_ops_.fetch_add(1, std::memory_order_relaxed);
    read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordWrite(uint64_t bytes) {
    write_ops_.fetch_add(1, std::memory_order_relaxed);
    write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// Drains the per-tablet counters: each load report carries the window
  /// since the previous collection, so the balancer sees deltas.
  LoadWindow TakeLoadWindow() {
    LoadWindow w;
    w.read_ops = read_ops_.exchange(0, std::memory_order_relaxed);
    w.write_ops = write_ops_.exchange(0, std::memory_order_relaxed);
    w.read_bytes = read_bytes_.exchange(0, std::memory_order_relaxed);
    w.write_bytes = write_bytes_.exchange(0, std::memory_order_relaxed);
    return w;
  }

 private:
  const TabletDescriptor descriptor_;
  // Set in the constructor; MultiVersionIndex is internally synchronized
  // (B-link latch protocol underneath).
  std::unique_ptr<index::MultiVersionIndex> index_;
  std::atomic<uint64_t> updates_since_persist_{0};
  // Written on the single-threaded open/recovery path only.
  uint32_t source_instance_ = 0;
  std::atomic<bool> sealed_{false};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> write_bytes_{0};
};

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_TABLET_H_

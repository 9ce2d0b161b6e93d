// Ranked mutexes: every lock in the system carries a static rank from the
// global table below, and (when lock-order checking is compiled in) a
// thread-local held-rank stack aborts the process on any acquisition that
// inverts the global order. This turns latent deadlocks — which need an
// unlucky interleaving to fire — into deterministic failures on the first
// mis-ordered acquisition, under any schedule.
//
// The rule: a thread may only acquire a mutex whose rank is strictly greater
// than every rank it already holds. Ranks grow "inward": coarse control-plane
// locks (master, client cache) rank lowest, storage-engine locks in the
// middle, and the substrate everything calls into while locked (DFS, sim
// models, metrics) ranks highest. Gaps between values leave room for new
// locks without renumbering.
//
// Checking is controlled by the LOGBASE_LOCK_ORDER_CHECKS CMake option
// (default ON in every preset; OFF compiles the checker out for maximum-
// performance builds). Violations print both ranks/names and abort; tests
// capture them instead via SetLockOrderHook.

#ifndef LOGBASE_UTIL_ORDERED_MUTEX_H_
#define LOGBASE_UTIL_ORDERED_MUTEX_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "src/util/thread_annotations.h"

namespace logbase {

// ---------------------------------------------------------------------------
// The global lock-rank table. One entry per mutex in the system; keep this
// list ordered by rank and mirrored in DESIGN.md § Correctness tooling.
// ---------------------------------------------------------------------------
namespace lockrank {
enum Rank : uint32_t {
  // Control plane: held across calls into almost everything below.
  kBalancerState = 90,          // balance::Balancer::mu_
  kMasterState = 100,           // master::Master::mu_
  // QoS front door: admission holds its lock while refreshing its quotas
  // from the /meta/quota znodes (kCoordZnodes).
  kQosAdmission = 105,          // qos::AdmissionController::mu_
  kClientCache = 110,           // client::LogBaseClient::cache_mu_

  // Read replicas: tablets_mu_ is held across checkpoint seeding and log
  // tail polls (both call down into the DFS and log-reader locks).
  kReplicaServerTablets = 130,  // replica::ReplicaServer::mu_

  // HBase baseline engine (WAL+Data): holds its locks across DFS writes.
  kHBaseServerTablets = 150,    // baselines::HBaseServer::tablets_mu_
  kHBaseServerTimestamps = 160, // baselines::HBaseServer::ts_mu_
  kHBaseTablet = 170,           // baselines::HBaseTablet::mu_

  // Tablet server: checkpoint_mu_ is held across the checkpoint's log flush
  // and DFS write; tablets_mu_ only while the sections are encoded.
  kTabletServerCheckpoint = 195,// tablet::TabletServer::checkpoint_mu_
  kTabletServerTablets = 200,   // tablet::TabletServer::tablets_mu_
  kTabletServerReaders = 210,   // tablet::TabletServer::readers_mu_
  kTabletServerTimestamps = 220,// tablet::TabletServer::ts_mu_
  kTabletServerDecisions = 230, // tablet::TabletServer::decisions_mu_
  kReadBuffer = 250,            // tablet::ReadBuffer::mu_

  // Coordination service (leaf of the control plane: the master queries it
  // while holding kMasterState; watches fire outside the lock).
  kCoordZnodes = 300,           // coord::ZnodeTree::mu_

  // LSM engine: write lock held across version edits and sstable IO.
  kLsmWrite = 400,              // lsm::LsmTree::write_mu_
  kLsmVersions = 410,           // lsm::VersionSet::mu_

  // B-link index bookkeeping (per-node latches are hand-over-hand and stay
  // raw std::mutex; see the lint allowlist).
  kBlinkRoot = 500,             // index::BlinkTree::root_change_mu_
  kBlinkAlloc = 510,            // index::BlinkTree::alloc_mu_

  // Log repository: the writer lock is held across DFS appends.
  kLogWriter = 600,             // log::LogWriter::mu_
  kLogReader = 610,             // log::LogReader::mu_

  kBlockCache = 650,            // sstable::BlockCache::mu_

  // DFS metadata/data plane: reached from nearly every lock above.
  kDfsReader = 690,             // dfs::DfsRandomAccessFile::mu_
  kDfsReplicaView = 695,        // dfs::ReplicaView::mu_
  kDfsNameNode = 700,           // dfs::NameNode::mu_
  kDfsDataNode = 710,           // dfs::DataNode::mu_
  kDfsBlockBytes = 720,         // dfs::BlockBytes::mu_
  kDfsChunkFile = 725,          // dfs::ChunkFile::mu_

  // In-memory test filesystem: map lock, then per-file lock.
  kMemFs = 750,                 // MemFileSystem::mu_
  kMemFile = 760,               // MemFileSystem::MemFile::mu
  kFaultState = 780,            // fault::FaultInjector::mu_

  // Simulation substrate: charged from within most higher-level locks.
  kSimDisk = 800,               // sim::DiskModel::mu_
  kSimResource = 810,           // sim::Resource::mu_

  // Observability: metrics are bumped from everywhere, including while
  // holding the log-writer lock, so they rank last.
  kMetricsShard = 900,          // obs::MetricsRegistry::Shard::mu
  kMetricsHistogram = 910,      // obs::HistogramMetric::mu_
};
}  // namespace lockrank

/// What the checker saw when an acquisition inverted the global order.
struct LockOrderViolation {
  uint32_t held_rank = 0;
  const char* held_name = "";
  uint32_t acquiring_rank = 0;
  const char* acquiring_name = "";
};

/// Replaces the violation handler (default: print both ranks and abort).
/// Returns the previous hook; pass nullptr to restore the default. Tests use
/// this to assert that an inverted acquisition is detected without dying.
using LockOrderHook = void (*)(const LockOrderViolation&);
LockOrderHook SetLockOrderHook(LockOrderHook hook);

/// Number of ranked locks the calling thread currently holds (test aid).
size_t HeldRankCount();

namespace internal {
// Push/pop on the calling thread's held-rank stack; Push runs the order
// check first. Compiled to no-ops when LOGBASE_LOCK_ORDER_CHECKS is 0.
void PushRank(uint32_t rank, const char* name);
void PopRank(uint32_t rank, const char* name);
}  // namespace internal

/// Drop-in std::mutex replacement carrying a static rank. Satisfies
/// Lockable; hold it through the MutexLock scoped guard below so Clang's
/// thread-safety analysis sees the acquisition (std::lock_guard over a
/// libstdc++ mutex is opaque to the analysis).
class CAPABILITY("mutex") OrderedMutex {
 public:
  OrderedMutex(uint32_t rank, const char* name) : rank_(rank), name_(name) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() ACQUIRE() {
    internal::PushRank(rank_, name_);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    internal::PushRank(rank_, name_);
    return true;
  }
  void unlock() RELEASE() {
    mu_.unlock();
    internal::PopRank(rank_, name_);
  }

  uint32_t rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const uint32_t rank_;
  const char* const name_;
};

/// Drop-in std::shared_mutex replacement. Shared (reader) acquisitions obey
/// the same rank order as exclusive ones: reader-then-writer inversions
/// deadlock just as surely as writer-then-writer ones.
class CAPABILITY("shared_mutex") OrderedSharedMutex {
 public:
  OrderedSharedMutex(uint32_t rank, const char* name)
      : rank_(rank), name_(name) {}
  OrderedSharedMutex(const OrderedSharedMutex&) = delete;
  OrderedSharedMutex& operator=(const OrderedSharedMutex&) = delete;

  void lock() ACQUIRE() {
    internal::PushRank(rank_, name_);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    internal::PushRank(rank_, name_);
    return true;
  }
  void unlock() RELEASE() {
    mu_.unlock();
    internal::PopRank(rank_, name_);
  }

  void lock_shared() ACQUIRE_SHARED() {
    internal::PushRank(rank_, name_);
    mu_.lock_shared();
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    internal::PushRank(rank_, name_);
    return true;
  }
  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
    internal::PopRank(rank_, name_);
  }

  uint32_t rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const uint32_t rank_;
  const char* const name_;
};

/// Scoped exclusive guard over an OrderedMutex — the repo's replacement for
/// std::lock_guard / std::unique_lock so the thread-safety analysis tracks
/// the acquisition. Supports the two unlock idioms the codebase uses:
/// early release (`l.unlock()` before slow work) and
/// condition_variable_any waits (`cv.wait(l)` — BasicLockable).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(OrderedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Re-acquires after an early unlock() (condition_variable_any calls
  /// this pair around every wait).
  void lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }

 private:
  OrderedMutex& mu_;
  bool held_ = true;
};

/// Scoped shared (reader) guard over an OrderedSharedMutex.
class SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(OrderedSharedMutex& mu) ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedMutexLock() RELEASE() {
    if (held_) mu_.unlock_shared();
  }

  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

  void lock() ACQUIRE_SHARED() {
    mu_.lock_shared();
    held_ = true;
  }
  void unlock() RELEASE() {
    mu_.unlock_shared();
    held_ = false;
  }

 private:
  OrderedSharedMutex& mu_;
  bool held_ = true;
};

}  // namespace logbase

#endif  // LOGBASE_UTIL_ORDERED_MUTEX_H_

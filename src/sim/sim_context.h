// Virtual-time plumbing. Macro benchmarks measure *virtual* time: every
// simulated client (an actor) owns a SimContext holding its clock, installs
// it as the ambient context while it runs an operation, and every hardware
// model (disk, NIC) the operation touches advances that clock through FCFS
// resources. This reproduces queueing, contention and sequential-vs-random
// I/O effects deterministically on one real thread.
//
// When no ambient context is installed (unit tests, real-time micro
// benchmarks) all cost charging is a no-op and the system behaves as plain
// in-memory code.

#ifndef LOGBASE_SIM_SIM_CONTEXT_H_
#define LOGBASE_SIM_SIM_CONTEXT_H_

#include <cstdint>

namespace logbase::sim {

/// Virtual time in microseconds.
using VirtualTime = int64_t;

/// The clock of one simulated actor (a benchmark client, a recovery job, a
/// compaction job). Not thread-safe; one actor runs on one thread at a time.
class SimContext {
 public:
  SimContext() = default;
  explicit SimContext(VirtualTime start) : now_(start) {}

  VirtualTime now() const { return now_; }

  /// Moves the clock forward to `t`; ignored if t is in the past (an
  /// operation can never complete before it started).
  void AdvanceTo(VirtualTime t) {
    if (t > now_) now_ = t;
  }

  void Advance(VirtualTime dt) { now_ += dt; }

  /// The ambient context of the calling thread, or nullptr.
  static SimContext* Current();

  /// RAII installer: sets the ambient context for the current thread.
  class Scope {
   public:
    explicit Scope(SimContext* ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SimContext* saved_;
  };

 private:
  VirtualTime now_ = 0;
};

/// A clock of its own, installed as the ambient context for this object's
/// lifetime: one actor that runs alone rather than under a sim::Scheduler
/// (a nemesis run).
class ScopedClock {
 public:
  explicit ScopedClock(VirtualTime start = 0)
      : clock_(start), scope_(&clock_) {}
  ScopedClock(const ScopedClock&) = delete;
  ScopedClock& operator=(const ScopedClock&) = delete;

  VirtualTime now() const { return clock_.now(); }
  void Advance(VirtualTime dt) { clock_.Advance(dt); }

 private:
  SimContext clock_;
  SimContext::Scope scope_;
};

/// Advances the ambient clock by a pure-CPU cost; no-op without a context.
void ChargeCpu(VirtualTime us);

/// The ambient clock's reading, or 0 without a context.
VirtualTime CurrentVirtualTime();

}  // namespace logbase::sim

#endif  // LOGBASE_SIM_SIM_CONTEXT_H_

// Work that overlaps in virtual time. An actor that sends several requests
// at once (a query's per-tablet sub-queries, a commit round's appends on
// every participant) issues each as a branch of one Fanout. Every branch
// runs on a child clock of its own that starts at the fan-out point, or,
// when the width bound is reached, at the earliest running branch's
// completion; Join() then moves the actor's clock to the last completion,
// so elapsed time is the critical path, not the sum. The host still runs
// the branches one after another, in the order the caller issues them, so
// the calls they make reach the FCFS sim::Resources in that order.
//
// Without an ambient context (unit tests, real-time micro benchmarks) a
// Fanout only runs its branches.

#ifndef LOGBASE_SIM_FANOUT_H_
#define LOGBASE_SIM_FANOUT_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/sim_context.h"

namespace logbase::sim {

class Fanout {
 public:
  /// Branches fan out from the ambient clock's current reading. `width`
  /// bounds how many overlap; 0 leaves them unbounded.
  explicit Fanout(size_t width = 0)
      : parent_(SimContext::Current()),
        base_(parent_ != nullptr ? parent_->now() : 0),
        finish_(base_),
        width_(width) {}

  Fanout(const Fanout&) = delete;
  Fanout& operator=(const Fanout&) = delete;

  /// Runs `branch` on its own child clock and returns what it returns. The
  /// branch's elapsed time counts towards Join() whatever the result.
  template <typename Branch>
  decltype(auto) Run(Branch&& branch) {
    if (parent_ == nullptr) return branch();
    Child child(this);
    return branch();
  }

  /// Moves the ambient clock to the last branch completion. A fan-out that
  /// is never joined runs off the caller's critical path.
  void Join() {
    if (parent_ != nullptr) parent_->AdvanceTo(finish_);
  }

 private:
  // The branch's clock, installed as the ambient context for its lifetime;
  // retiring it records the branch's completion.
  class Child {
   public:
    explicit Child(Fanout* fanout)
        : fanout_(fanout), clock_(fanout->NextStart()), scope_(&clock_) {}
    ~Child() { fanout_->Retire(clock_.now()); }
    Child(const Child&) = delete;
    Child& operator=(const Child&) = delete;

   private:
    Fanout* const fanout_;
    SimContext clock_;
    SimContext::Scope scope_;
  };

  VirtualTime NextStart() {
    if (width_ == 0 || running_.size() < width_) return base_;
    VirtualTime start = running_.top();
    running_.pop();
    return start;
  }

  void Retire(VirtualTime done) {
    if (width_ != 0) running_.push(done);
    finish_ = std::max(finish_, done);
  }

  SimContext* const parent_;
  const VirtualTime base_;
  VirtualTime finish_;
  const size_t width_;
  // Completion times of the branches holding a slot (bounded width only).
  std::priority_queue<VirtualTime, std::vector<VirtualTime>,
                      std::greater<VirtualTime>>
      running_;
};

}  // namespace logbase::sim

#endif  // LOGBASE_SIM_FANOUT_H_

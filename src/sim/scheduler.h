// Discrete-event stepping of simulated actors. Each actor owns a SimContext
// clock; the scheduler always steps the actor with the smallest clock, ties
// broken by actor id (add order), so the calls actors make into the system
// reach the FCFS sim::Resources in virtual start order.

#ifndef LOGBASE_SIM_SCHEDULER_H_
#define LOGBASE_SIM_SCHEDULER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/sim_context.h"

namespace logbase::sim {

class Scheduler {
 public:
  /// Runs one step under the actor's installed clock; returns false once
  /// the actor has nothing left to do.
  using Step = std::function<bool(SimContext& ctx)>;

  /// Adds an actor whose clock starts at `start`. May be called from inside
  /// a step; the new actor is stepped from the next step on.
  void Add(VirtualTime start, Step step) {
    actors_.push_back(
        std::make_unique<Actor>(Actor{SimContext(start), std::move(step)}));
    ready_.emplace(start, actors_.size() - 1);
  }

  /// Steps until every actor is done; returns the latest clock an actor
  /// retired at (the end of the phase).
  VirtualTime Run() {
    while (!ready_.empty()) {
      auto [at, id] = ready_.top();
      ready_.pop();
      now_ = at;
      Actor* actor = actors_[id].get();
      bool more;
      {
        SimContext::Scope scope(&actor->ctx);
        more = actor->step(actor->ctx);
      }
      if (more) {
        ready_.emplace(actor->ctx.now(), id);
      } else {
        end_ = std::max(end_, actor->ctx.now());
      }
    }
    return end_;
  }

  /// The clock of the actor being stepped (its start time for this step).
  VirtualTime now() const { return now_; }

 private:
  struct Actor {
    SimContext ctx;
    Step step;
  };
  using Entry = std::pair<VirtualTime, size_t>;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready_;
  VirtualTime now_ = 0;
  VirtualTime end_ = 0;
};

}  // namespace logbase::sim

#endif  // LOGBASE_SIM_SCHEDULER_H_

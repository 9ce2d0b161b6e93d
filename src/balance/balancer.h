// The load-aware placement loop: folds the tablet servers' periodic load
// reports into smoothed per-tablet scores, detects imbalance, and issues at
// most one migration or split per tick through the master's reassignment
// routine (Master::MigrateTablet / SplitTablet).
// Runs on the virtual clock (the cluster driver calls Tick()), is a no-op
// without an active master, and is deterministic for a fixed seed.

#ifndef LOGBASE_BALANCE_BALANCER_H_
#define LOGBASE_BALANCE_BALANCER_H_

#include <functional>
#include <map>
#include <string>

#include "src/master/master.h"
#include "src/util/ordered_mutex.h"
#include "src/util/random.h"

namespace logbase::balance {

struct BalancerOptions {
  /// Tie-break seed (equally cold targets are chosen pseudo-randomly so a
  /// degenerate all-idle cluster does not always dump on the lowest id).
  uint64_t seed = 42;
  /// Sleep through rounds whose cluster-wide score is below this: a cold
  /// cluster has nothing worth moving.
  double min_total_score = 64.0;
  bool enable_splits = true;
};

struct BalancerStats {
  uint64_t ticks = 0;
  uint64_t migrations = 0;
  uint64_t splits = 0;
  uint64_t failures = 0;
};

class Balancer {
 public:
  /// `master_resolver` returns the current active master (nullptr or a
  /// non-active master makes Tick a no-op); the balancer never caches it
  /// across ticks, so failovers are transparent.
  explicit Balancer(std::function<master::Master*()> master_resolver,
                    BalancerOptions options = {});

  /// One policy round: drain every live server's load window, smooth, feed
  /// the master's placement load hint, then migrate or split at most once.
  Status Tick();

  BalancerStats stats() const;

 private:
  const std::function<master::Master*()> master_resolver_;
  const BalancerOptions options_;

  mutable OrderedMutex mu_{lockrank::kBalancerState, "balancer.state"};
  // By uid, EWMA-smoothed.
  std::map<std::string, double> tablet_score_ GUARDED_BY(mu_);
  BalancerStats stats_ GUARDED_BY(mu_);
  Random rnd_ GUARDED_BY(mu_);
};

}  // namespace logbase::balance

#endif  // LOGBASE_BALANCE_BALANCER_H_

// RetryPolicy: bounded retries with exponential backoff + deterministic
// jitter over *virtual* time. Replaces the client's and DFS pipeline's
// naive retry loops. Backoff advances the ambient sim::SimContext (no-op
// without one), so retried operations cost simulated wall time exactly the
// way a sleeping client would. Jitter is a pure function of
// (seed, op, attempt) — no shared RNG state, so concurrent retriers stay
// deterministic and race-free.

#ifndef LOGBASE_FAULT_RETRY_POLICY_H_
#define LOGBASE_FAULT_RETRY_POLICY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/sim/sim_context.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace logbase::fault {

/// No backoff exceeds this, before jitter.
inline constexpr sim::VirtualTime kMaxBackoffUs = 200 * 1000;

struct RetryOptions {
  /// Total attempts, including the first (so max_attempts - 1 retries).
  int max_attempts = 5;
  /// Backoff before the first retry; each retry doubles it, up to
  /// kMaxBackoffUs.
  sim::VirtualTime initial_backoff_us = 500;
  /// Each backoff is scaled by a factor uniform in [1-jitter, 1+jitter].
  double jitter = 0.2;
  /// Per-op deadline on the *cumulative backoff* budget, in virtual
  /// microseconds; 0 = no deadline. Checked before sleeping: a retry whose
  /// cumulative backoff would cross the deadline is not taken. (Backoff is
  /// the only time this policy adds; the op's own cost is charged by the
  /// op.)
  sim::VirtualTime deadline_us = 0;
  /// Seed folded into the jitter hash (distinguishes independent clients).
  uint64_t seed = 0;
};

/// Which failures are worth retrying: transient conditions that a healed
/// fault or a failover can clear. Correctness errors are returned as-is.
bool IsRetryableStatus(const Status& s);

/// Stateless apart from its options; safe to share across threads.
class RetryPolicy {
 public:
  explicit RetryPolicy(RetryOptions options = RetryOptions())
      : options_(options) {}

  const RetryOptions& options() const { return options_; }

  /// Runs `fn` until it returns OK, a non-retryable status, or attempts /
  /// deadline run out. On exhaustion returns Unavailable carrying `op`, the
  /// attempt count, and the last underlying error.
  Status Run(const char* op, const std::function<Status()>& fn) const;

  /// Result-returning overload with the same semantics.
  template <typename T>
  Result<T> Run(const char* op,
                const std::function<Result<T>()>& fn) const {
    Status last = Status::OK();
    int attempt = 1;
    for (;; attempt++) {
      Result<T> r = fn();
      if (r.ok() || !IsRetryableStatus(r.status())) return r;
      last = r.status();
      if (!PrepareRetry(op, attempt, last)) break;
    }
    return Exhausted(op, attempt, last);
  }

  /// The jittered backoff before retry number `attempt` (1-based: the wait
  /// after the first failed attempt is BackoffUs(op, 1)). Deterministic.
  sim::VirtualTime BackoffUs(const char* op, int attempt) const;

 private:
  /// Charges the backoff for retry `attempt` and bumps retry metrics.
  /// False when the attempt budget or deadline is exhausted.
  bool PrepareRetry(const char* op, int attempt, const Status& last) const;
  /// The terminal Unavailable status after `attempts` failed attempts.
  Status Exhausted(const char* op, int attempts, const Status& last) const;

  RetryOptions options_;
};

}  // namespace logbase::fault

#endif  // LOGBASE_FAULT_RETRY_POLICY_H_

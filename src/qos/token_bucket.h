// Deterministic token bucket on the virtual clock. Operation tokens refill
// continuously at the configured rate as virtual time advances. There is
// no background refill thread: the bucket lazily tops itself up from the
// timestamp the caller passes in, so identical (op, timestamp) sequences
// always produce identical admit/shed decisions regardless of real-thread
// scheduling.
//
// Probing (WaitFor) and debiting (Consume) are split so the admission
// controller can first learn the wait, decide admit/queue/shed, and only
// then consume. A shed therefore never burns tokens.
//
// The bucket itself is not synchronized; the owner (AdmissionController)
// serializes access under its own ranked mutex.

#ifndef LOGBASE_QOS_TOKEN_BUCKET_H_
#define LOGBASE_QOS_TOKEN_BUCKET_H_

#include <cstdint>

#include "src/sim/sim_context.h"

namespace logbase::qos {

class TokenBucket {
 public:
  TokenBucket() = default;
  /// A rate <= 0 means unlimited.
  TokenBucket(double ops_per_sec, double ops_burst) {
    Reset(ops_per_sec, ops_burst);
  }

  /// Replaces the limits and refills the bucket to its burst capacity.
  void Reset(double ops_per_sec, double ops_burst);

  /// Refills to virtual time `now` and returns how many microseconds until
  /// `ops` tokens are available: 0 = they already are. Never consumes.
  int64_t WaitFor(uint64_t ops, sim::VirtualTime now);

  /// Debits `ops` as of virtual time `at` (refilling up to `at` first).
  /// `at` is `now` for an immediate admit, or the queued request's release
  /// time — consuming at release is what makes later arrivals see the
  /// queue's token debt.
  void Consume(uint64_t ops, sim::VirtualTime at);

  /// Current tokens after refilling to `now` (observability gauge).
  double OpsAvailable(sim::VirtualTime now);

 private:
  void RefillTo(sim::VirtualTime now);

  double ops_per_sec_ = 0.0;
  double ops_burst_ = 0.0;
  double op_tokens_ = 0.0;
  sim::VirtualTime last_refill_ = 0;
};

}  // namespace logbase::qos

#endif  // LOGBASE_QOS_TOKEN_BUCKET_H_

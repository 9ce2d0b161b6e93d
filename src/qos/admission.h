// Admission control at the server front door. Every externally-driven
// operation (Put/Get/Scan/ExecuteScan/Submit) passes through Admit() before
// touching any server state, so a rejected op can never partially apply.
//
// Quotas are tenant-wide ops/s token buckets. They are configured through
// the master (Master::SetQuota), persisted as znodes under
// /meta/quota/<tenant>, and read by every tablet/replica server's
// controller through the shared coordination service at most once per
// kRefreshIntervalUs of virtual time: a quota update becomes visible
// fleet-wide within one interval without any push protocol, and the read
// path stays deterministic.
//
// Decision ladder, evaluated on the virtual clock:
//   1. The tenant's token bucket has the tokens (or the tenant has no
//      quota) → ADMIT.
//   2. Tokens short but the wait is small (<= the priority class's queue
//      wait cap) and that class's bounded wait-queue has room → QUEUE: the
//      caller's ambient virtual clock advances by the wait (the
//      deterministic analogue of parking the request) and the tokens are
//      consumed at the release time.
//   3. Otherwise → SHED: fail fast with retryable Unavailable carrying a
//      server-computed retry_after_us hint that fault::RetryPolicy honors
//      on the client. No state was touched, nothing is consumed.
//
// Shedding over queueing under sustained overload is the point: a deep queue
// only converts overload into timeouts, while an early retryable error with
// an honest hint lets well-behaved clients back off and keeps the server's
// queue short enough that normal-priority work still fits (see DESIGN.md
// § 12).
//
// The codec and paths live here (not in master/meta_codec.h) so the master
// can depend on qos without qos depending back on master.

#ifndef LOGBASE_QOS_ADMISSION_H_
#define LOGBASE_QOS_ADMISSION_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/qos/tenant.h"
#include "src/qos/token_bucket.h"
#include "src/sim/sim_context.h"
#include "src/util/ordered_mutex.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace logbase::coord {
class CoordinationService;
}  // namespace logbase::coord

namespace logbase::qos {

/// Znode subtree holding one child per tenant quota.
inline constexpr const char* kMetaQuota = "/meta/quota";

inline std::string QuotaPath(const std::string& tenant) {
  return std::string(kMetaQuota) + "/" + tenant;
}

/// A tenant-wide ops/s quota. A rate <= 0 means unlimited.
struct QuotaSpec {
  std::string tenant;
  double ops_per_sec = 0.0;
  double ops_burst = 0.0;

  bool operator==(const QuotaSpec&) const = default;
};

std::string EncodeQuotaSpec(const QuotaSpec& spec);
bool DecodeQuotaSpec(Slice in, QuotaSpec* spec);

/// Copyable switch; rides in TabletServerOptions / ReplicaServerOptions.
struct AdmissionOptions {
  /// Disabled means Admit() is a free pass (the default, so existing tests
  /// and benches are unaffected until a bench opts in).
  bool enabled = false;
};

/// Thread-safe.
class AdmissionController {
 public:
  /// `coord` may be null (unit tests, benches without a master): only
  /// quotas installed via SetLocal then apply. `node` is the machine whose
  /// clock pays each quota refresh's coordination round trip.
  AdmissionController(const AdmissionOptions& options,
                      coord::CoordinationService* coord, int node);

  bool enabled() const { return options_.enabled; }

  /// Installs/overwrites a quota locally without a master (tests, benches).
  void SetLocal(const QuotaSpec& spec);

  /// Gate one operation of `ops` logical ops for the ambient tenant. OK =
  /// admitted (possibly after a queued wait that advanced the ambient
  /// virtual clock); Unavailable with a retry_after_us hint = shed before
  /// any state was touched.
  [[nodiscard]] Status Admit(uint64_t ops);

  /// Entries currently parked across all priority queues (test aid; also
  /// exported as the qos.queue_depth gauge).
  size_t QueueDepth() const;

 private:
  struct Quota {
    QuotaSpec spec;
    TokenBucket bucket;
  };

  /// Re-reads /meta/quota when the cached view is older than
  /// kRefreshIntervalUs. Buckets survive a refresh unless their limits
  /// changed, so accumulated debt is not forgiven by a routine re-read.
  void RefreshLocked(sim::VirtualTime now) REQUIRES(mu_);
  /// The tenant's bucket, or null when it has no (limited) quota.
  TokenBucket* BucketLocked(const std::string& tenant) REQUIRES(mu_);
  size_t PruneQueuesLocked(sim::VirtualTime now) REQUIRES(mu_);

  const AdmissionOptions options_;
  coord::CoordinationService* const coord_;
  const int node_;

  mutable OrderedMutex mu_{lockrank::kQosAdmission, "qos::Admission::mu_"};
  /// By tenant.
  std::map<std::string, Quota> quotas_ GUARDED_BY(mu_);
  sim::VirtualTime last_refresh_ GUARDED_BY(mu_) = -1;
  /// Release times of queued ops per priority class, pruned lazily.
  std::array<std::deque<sim::VirtualTime>, kNumPriorities> queues_
      GUARDED_BY(mu_);
};

}  // namespace logbase::qos

#endif  // LOGBASE_QOS_ADMISSION_H_

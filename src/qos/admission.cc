#include "src/qos/admission.h"

#include <cstring>

#include "src/coord/coordination_service.h"
#include "src/obs/metrics.h"
#include "src/util/coding.h"

namespace logbase::qos {

namespace {

// Per-priority queue policy, indexed by Priority. A computed wait above the
// class's cap — or a full queue — sheds instead of queueing.
constexpr std::array<int64_t, kNumPriorities> kMaxQueueWaitUs{10'000, 5'000};
constexpr std::array<size_t, kNumPriorities> kMaxQueueDepth{32, 16};
// How long the cached /meta/quota view stays fresh before the next Admit
// re-reads the znodes.
constexpr sim::VirtualTime kRefreshIntervalUs = 20'000;

obs::Counter* Admitted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("qos.admitted");
  return c;
}
obs::Counter* ShedCount() {
  static obs::Counter* c = obs::MetricsRegistry::Global().counter("qos.shed");
  return c;
}
obs::Counter* QueuedCount() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("qos.queued");
  return c;
}
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().gauge("qos.queue_depth");
  return g;
}
obs::Gauge* TokensAvailableGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().gauge("qos.tokens_available");
  return g;
}

// Doubles are stored as their IEEE-754 bit pattern: exact round-trip, no
// locale/printf dependence.
void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

bool GetDouble(Slice* in, double* v) {
  uint64_t bits;
  if (!GetFixed64(in, &bits)) return false;
  memcpy(v, &bits, sizeof(bits));
  return true;
}

}  // namespace

std::string EncodeQuotaSpec(const QuotaSpec& spec) {
  std::string out;
  PutLengthPrefixedSlice(&out, Slice(spec.tenant));
  PutDouble(&out, spec.ops_per_sec);
  PutDouble(&out, spec.ops_burst);
  return out;
}

bool DecodeQuotaSpec(Slice in, QuotaSpec* spec) {
  Slice tenant;
  if (!GetLengthPrefixedSlice(&in, &tenant)) return false;
  spec->tenant = tenant.ToString();
  return GetDouble(&in, &spec->ops_per_sec) &&
         GetDouble(&in, &spec->ops_burst) && in.empty();
}

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         coord::CoordinationService* coord,
                                         int node)
    : options_(options), coord_(coord), node_(node) {}

void AdmissionController::SetLocal(const QuotaSpec& spec) {
  MutexLock l(mu_);
  Quota& quota = quotas_[spec.tenant];
  quota.spec = spec;
  quota.bucket.Reset(spec.ops_per_sec, spec.ops_burst);
}

void AdmissionController::RefreshLocked(sim::VirtualTime now) {
  if (coord_ == nullptr) return;
  if (last_refresh_ >= 0 && now >= last_refresh_ &&
      now - last_refresh_ < kRefreshIntervalUs) {
    return;
  }
  last_refresh_ = now;
  auto* znodes = coord_->znodes();
  auto children = znodes->GetChildren(kMetaQuota);
  coord_->ChargeRoundTrip(node_);
  // No quota subtree yet means quotas were never pushed: keep every entry
  // (locally installed ones have no znode backing).
  if (!children.ok()) return;
  for (const auto& child : children.value()) {
    auto data = znodes->Get(QuotaPath(child));
    if (!data.ok()) continue;
    QuotaSpec spec;
    if (!DecodeQuotaSpec(Slice(data.value()), &spec)) continue;
    Quota& quota = quotas_[spec.tenant];
    // Only a changed limit resets the bucket: a routine refresh must not
    // forgive accumulated debt.
    if (quota.spec == spec) continue;
    quota.spec = spec;
    quota.bucket.Reset(spec.ops_per_sec, spec.ops_burst);
  }
}

TokenBucket* AdmissionController::BucketLocked(const std::string& tenant) {
  auto it = quotas_.find(tenant);
  if (it == quotas_.end() || it->second.spec.ops_per_sec <= 0) return nullptr;
  return &it->second.bucket;
}

size_t AdmissionController::PruneQueuesLocked(sim::VirtualTime now) {
  size_t depth = 0;
  for (auto& q : queues_) {
    while (!q.empty() && q.front() <= now) q.pop_front();
    depth += q.size();
  }
  return depth;
}

size_t AdmissionController::QueueDepth() const {
  const sim::VirtualTime now = sim::CurrentVirtualTime();
  MutexLock l(mu_);
  size_t depth = 0;
  for (const auto& q : queues_) {
    for (const auto release : q) {
      if (release > now) depth++;
    }
  }
  return depth;
}

Status AdmissionController::Admit(uint64_t ops) {
  if (!options_.enabled) return Status::OK();
  const TenantIdentity& who = CurrentTenant();
  const int pri = static_cast<int>(who.priority);
  const sim::VirtualTime now = sim::CurrentVirtualTime();

  MutexLock l(mu_);
  // Probe first and consume only once the request is actually admitted, so
  // a shed burns no tokens.
  RefreshLocked(now);
  TokenBucket* bucket = BucketLocked(who.tenant);
  const int64_t wait = bucket != nullptr ? bucket->WaitFor(ops, now) : 0;

  QueueDepthGauge()->Set(static_cast<int64_t>(PruneQueuesLocked(now)));
  if (bucket != nullptr) {
    TokensAvailableGauge()->Set(
        static_cast<int64_t>(bucket->OpsAvailable(now)));
  }

  if (wait == 0) {
    if (bucket != nullptr) bucket->Consume(ops, now);
    Admitted()->Add();
    return Status::OK();
  }

  auto& queue = queues_[pri];
  if (wait > kMaxQueueWaitUs[pri] || queue.size() >= kMaxQueueDepth[pri]) {
    ShedCount()->Add();
    return Status::UnavailableWithRetryAfter("over tenant quota: " + who.tenant,
                                             wait);
  }

  // Queue: park the request for `wait` virtual microseconds. Advancing the
  // caller's ambient clock is the deterministic analogue of blocking; tokens
  // are consumed at the release time so later arrivals see the queue's debt
  // and back up behind it.
  const sim::VirtualTime release = now + wait;
  queue.push_back(release);
  if (auto* ctx = sim::SimContext::Current()) ctx->Advance(wait);
  bucket->Consume(ops, release);
  QueuedCount()->Add();
  Admitted()->Add();
  return Status::OK();
}

}  // namespace logbase::qos

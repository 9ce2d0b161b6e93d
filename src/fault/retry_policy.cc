#include "src/fault/retry_policy.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"

namespace logbase::fault {

namespace {

/// Each retry's backoff is this multiple of the previous one's.
constexpr double kBackoffMultiplier = 2.0;

obs::Counter* RetryAttempts() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.retry.attempts");
  return c;
}

obs::Counter* RetryExhausted() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().counter("fault.retry.exhausted");
  return c;
}

obs::HistogramMetric* RetryBackoff() {
  static obs::HistogramMetric* h =
      obs::MetricsRegistry::Global().histogram("fault.retry.backoff_us");
  return h;
}

/// splitmix64: a full-avalanche mix so nearby (seed, op, attempt) tuples
/// give unrelated jitter.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashOp(const char* op) {
  // FNV-1a over the op name.
  uint64_t h = 1469598103934665603ULL;
  for (const char* p = op; *p != '\0'; p++) {
    h = (h ^ static_cast<uint8_t>(*p)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

bool IsRetryableStatus(const Status& s) {
  return s.IsUnavailable() || s.IsIOError() || s.IsBusy() || s.IsTimedOut();
}

sim::VirtualTime RetryPolicy::BackoffUs(const char* op, int attempt) const {
  double base = static_cast<double>(options_.initial_backoff_us) *
                std::pow(kBackoffMultiplier, attempt - 1);
  base = std::min(base, static_cast<double>(kMaxBackoffUs));
  uint64_t h = Mix(options_.seed ^ HashOp(op) ^
                   (static_cast<uint64_t>(attempt) << 32));
  // 53 random bits -> uniform double in [0, 1).
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  double factor = 1.0 - options_.jitter + 2.0 * options_.jitter * u;
  auto backoff = static_cast<sim::VirtualTime>(base * factor);
  return std::max<sim::VirtualTime>(backoff, 1);
}

bool RetryPolicy::PrepareRetry(const char* op, int attempt,
                               const Status& last) const {
  if (attempt >= options_.max_attempts) return false;
  sim::VirtualTime backoff = BackoffUs(op, attempt);
  // A server-computed retry-after hint (QoS admission shed) caps the
  // jittered exponential backoff: the server told us exactly when tokens
  // refill, so sleeping longer only wastes the client's deadline. The
  // deadline budget below intentionally stays on the nominal BackoffUs
  // schedule, so whether a run hits its deadline does not depend on which
  // attempts happened to carry hints.
  if (last.retry_after_us() > 0 && last.retry_after_us() < backoff) {
    backoff = std::max<sim::VirtualTime>(last.retry_after_us(), 1);
  }
  if (options_.deadline_us > 0) {
    sim::VirtualTime slept = 0;
    for (int i = 1; i <= attempt; i++) slept += BackoffUs(op, i);
    if (slept > options_.deadline_us) return false;
  }
  RetryAttempts()->Add();
  RetryBackoff()->Observe(static_cast<uint64_t>(backoff));
  sim::SimContext* ctx = sim::SimContext::Current();
  if (ctx != nullptr) ctx->Advance(backoff);
  return true;
}

Status RetryPolicy::Exhausted(const char* op, int attempts,
                              const Status& last) const {
  RetryExhausted()->Add();
  const std::string msg = std::string(op) + " failed after " +
                          std::to_string(attempts) +
                          " attempts: " + last.ToString();
  // Preserve a QoS retry-after hint through the wrap: the caller can both
  // identify an admission shed (which guarantees the op never applied) and
  // honor the server's pacing on its own later retry.
  if (last.retry_after_us() > 0) {
    return Status::UnavailableWithRetryAfter(msg, last.retry_after_us());
  }
  return Status::Unavailable(msg);
}

Status RetryPolicy::Run(const char* op,
                        const std::function<Status()>& fn) const {
  Status last = Status::OK();
  int attempt = 1;
  for (;; attempt++) {
    Status s = fn();
    if (s.ok() || !IsRetryableStatus(s)) return s;
    last = s;
    if (!PrepareRetry(op, attempt, last)) break;
  }
  return Exhausted(op, attempt, last);
}

}  // namespace logbase::fault

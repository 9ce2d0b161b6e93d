#include "src/qos/token_bucket.h"

#include <algorithm>
#include <cmath>

namespace logbase::qos {

void TokenBucket::Reset(double ops_per_sec, double ops_burst) {
  ops_per_sec_ = ops_per_sec;
  ops_burst_ = ops_burst;
  op_tokens_ = std::max(ops_burst_, 0.0);
  // Keep the refill origin wherever it already is: a quota update must not
  // manufacture a retroactive refill window.
}

void TokenBucket::RefillTo(sim::VirtualTime now) {
  if (now <= last_refill_) return;
  const double dt_sec =
      static_cast<double>(now - last_refill_) / 1'000'000.0;
  if (ops_per_sec_ > 0) {
    op_tokens_ = std::min(ops_burst_, op_tokens_ + ops_per_sec_ * dt_sec);
  }
  last_refill_ = now;
}

int64_t TokenBucket::WaitFor(uint64_t ops, sim::VirtualTime now) {
  RefillTo(now);
  if (ops_per_sec_ <= 0) return 0;
  const double need = static_cast<double>(ops) - op_tokens_;
  if (need <= 0) return 0;
  // Round up so the returned release time really has the tokens.
  return static_cast<int64_t>(std::ceil(need / ops_per_sec_ * 1'000'000.0)) +
         1;
}

void TokenBucket::Consume(uint64_t ops, sim::VirtualTime at) {
  RefillTo(at);
  if (ops_per_sec_ > 0) op_tokens_ -= static_cast<double>(ops);
}

double TokenBucket::OpsAvailable(sim::VirtualTime now) {
  RefillTo(now);
  return op_tokens_;
}

}  // namespace logbase::qos

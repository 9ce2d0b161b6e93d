// Thread-ambient tenant identity. Multi-tenant QoS needs to know *who* an
// operation belongs to at the server's front door (admission control)
// without threading a tenant argument through every signature in the
// system. The identity rides the same way the virtual clock does
// (sim::SimContext): a thread-local stack with an RAII installer. The client
// installs a TenantScope around each public operation; servers read
// CurrentTenant() wherever they need it.
//
// When no scope is installed (unit tests, internal maintenance work such as
// compaction or recovery) CurrentTenant() returns the default identity, which
// the admission controller treats as unlimited unless a quota is configured
// for the "default" tenant explicitly.

#ifndef LOGBASE_QOS_TENANT_H_
#define LOGBASE_QOS_TENANT_H_

#include <string>

namespace logbase::qos {

/// Priority class of a request: decides which bounded wait-queue the
/// admission controller parks it in when tokens are short. kLow queues
/// less deep and sheds at a shorter wait than kNormal.
enum class Priority : int { kNormal = 0, kLow = 1 };

inline constexpr int kNumPriorities = 2;

/// Who an operation belongs to. The tenant string keys quota lookup; empty
/// means "default".
struct TenantIdentity {
  std::string tenant;
  Priority priority = Priority::kNormal;
};

inline const std::string& DefaultTenantName() {
  static const std::string kDefault = "default";
  return kDefault;
}

/// The ambient identity of the calling thread. Never null; falls back to a
/// static default identity ("default", kNormal) when no scope is installed.
const TenantIdentity& CurrentTenant();

/// RAII installer: sets the ambient tenant for the current thread. Nests;
/// the innermost scope wins (e.g. an internal maintenance job spawned while
/// serving a request can drop to the default identity).
class TenantScope {
 public:
  explicit TenantScope(const TenantIdentity* identity);
  ~TenantScope();
  TenantScope(const TenantScope&) = delete;
  TenantScope& operator=(const TenantScope&) = delete;

 private:
  const TenantIdentity* saved_;
};

}  // namespace logbase::qos

#endif  // LOGBASE_QOS_TENANT_H_

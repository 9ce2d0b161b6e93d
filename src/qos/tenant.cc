#include "src/qos/tenant.h"

namespace logbase::qos {

namespace {
thread_local const TenantIdentity* g_current_tenant = nullptr;

const TenantIdentity& DefaultIdentity() {
  static const TenantIdentity kIdentity{DefaultTenantName(),
                                        Priority::kNormal};
  return kIdentity;
}
}  // namespace

const TenantIdentity& CurrentTenant() {
  return g_current_tenant != nullptr ? *g_current_tenant : DefaultIdentity();
}

TenantScope::TenantScope(const TenantIdentity* identity)
    : saved_(g_current_tenant) {
  g_current_tenant = identity;
}

TenantScope::~TenantScope() { g_current_tenant = saved_; }

}  // namespace logbase::qos

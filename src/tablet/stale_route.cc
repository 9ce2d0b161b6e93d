#include "src/tablet/stale_route.h"

namespace logbase::tablet {

namespace {

constexpr const char* kUnknownTablet = "unknown tablet";
constexpr const char* kTabletSealed = "tablet sealed for migration: ";
constexpr const char* kUnknownReplicaTablet = "unknown replica tablet: ";

}  // namespace

Status UnknownTablet() { return Status::NotFound(kUnknownTablet); }

Status TabletSealed(const std::string& uid) {
  return Status::Unavailable(kTabletSealed + uid);
}

Status UnknownReplicaTablet(const std::string& uid) {
  return Status::NotFound(kUnknownReplicaTablet + uid);
}

bool IsStaleRoute(const Status& s) {
  const Slice message(s.message());
  if (s.IsNotFound()) {
    return message == Slice(kUnknownTablet) ||
           message.starts_with(kUnknownReplicaTablet);
  }
  return s.IsUnavailable() && message.starts_with(kTabletSealed);
}

}  // namespace logbase::tablet

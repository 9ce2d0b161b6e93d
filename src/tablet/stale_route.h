// The answers a server gives a request routed by a stale tablet location
// (paper §3.3: clients cache locations, so a cached route can outlive a
// migration, split or failover). Tablet servers and read replicas build
// these statuses here, and the client recognises them here, so no caller
// spells another module's error text.

#ifndef LOGBASE_TABLET_STALE_ROUTE_H_
#define LOGBASE_TABLET_STALE_ROUTE_H_

#include <string>

#include "src/util/status.h"

namespace logbase::tablet {

/// NotFound: this tablet server holds no tablet by that uid (it moved away,
/// or a restarted server fenced it off).
Status UnknownTablet();

/// Unavailable: the tablet is sealed mid-migration; writes succeed at the
/// new owner once the assignment flips.
Status TabletSealed(const std::string& uid);

/// NotFound: this replica server has no attachment for that uid (torn down
/// by a migration, split or failover).
Status UnknownReplicaTablet(const std::string& uid);

/// True iff `s` is one of the answers above: the route that sent the
/// request is stale, and a fresh layout from the master routes it anew.
bool IsStaleRoute(const Status& s);

}  // namespace logbase::tablet

#endif  // LOGBASE_TABLET_STALE_ROUTE_H_

// Load reports: per-tablet op/byte counters aggregated by each tablet
// server and delivered to the balancer on the virtual clock. A report
// carries the *window* since the previous collection (the server drains its
// counters on collect), so consumers see deltas and smooth them themselves.
//
// This header is a leaf: the tablet server produces LoadReports and the
// balancer consumes them, so it must not depend on either.

#ifndef LOGBASE_BALANCE_LOAD_REPORT_H_
#define LOGBASE_BALANCE_LOAD_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace logbase::balance {

/// One tablet's activity window.
struct TabletLoad {
  std::string uid;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;

  uint64_t ops() const { return read_ops + write_ops; }
  uint64_t bytes() const { return read_bytes + write_bytes; }
  /// Scalar load score: ops dominate, bytes weigh in so a few huge scans
  /// count like many point ops.
  double Score() const {
    return static_cast<double>(ops()) +
           static_cast<double>(bytes()) / 4096.0;
  }
};

/// One server's activity window across all tablets it hosts, stamped with
/// the virtual time it was generated.
struct LoadReport {
  int server_id = -1;
  int64_t generated_at_us = 0;
  std::vector<TabletLoad> tablets;  // uid-ordered (map iteration order)
};

}  // namespace logbase::balance

#endif  // LOGBASE_BALANCE_LOAD_REPORT_H_

// The benchmark's three workloads. Each call boots a fresh 4-node
// MiniCluster, loads it, warms it up and runs one measured phase through the
// public client::LogBaseClient API, then checks the outputs. Inputs come only
// from `seed`; the same seed gives bit-identical virtual-clock results.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Workload names, in the order the benchmark lists them.
const std::vector<std::string>& WorkloadNames();

/// The workload's headline op: what `lat_p50_us` / `lat_p99_us` measure.
std::string HeadlineLatency(const std::string& workload);

/// Runs one repetition of `workload`. `tracer` is null for untraced runs.
RepResult RunWorkload(const std::string& workload, uint64_t seed,
                      Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

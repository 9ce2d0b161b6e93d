// The benchmark's harness: virtual-time actor scheduling, exact latency
// percentiles, host stopwatches, the bench-level span tracer, and the
// per-repetition result every workload returns.
//
// Two clocks. Virtual time is what the simulated cluster does (sim::
// SimContext microseconds); it repeats exactly for a fixed seed. Host time is
// what the C++ implementation costs to run (std::chrono::steady_clock).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/mini_cluster.h"
#include "src/sim/sim_context.h"

namespace perfbench {

using logbase::sim::SimContext;
using logbase::sim::VirtualTime;

/// Host wall clock in nanoseconds (monotonic).
inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw latency samples with exact percentiles.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values) : values_(std::move(values)) {}

  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double Mean() const;
  /// Percentile, p in [0, 100], interpolated linearly between the two
  /// nearest ranks; 0 when empty.
  double Percentile(double p) const;
  /// True when at least ten samples lie beyond the p-th percentile.
  bool Supports(double p) const {
    return static_cast<double>(values_.size()) * (100.0 - p) / 100.0 >= 10.0;
  }

 private:
  std::vector<double> values_;
};

/// Steps actors in virtual-time order: always the actor with the smallest
/// clock, ties broken by actor id. Each step runs exactly one call into the
/// system under the actor's own SimContext, so the order of calls on the
/// FCFS sim::Resources equals their virtual start order.
class Scheduler {
 public:
  /// Runs one call under the actor's installed clock; returns false once
  /// the actor has nothing left to do.
  using Step = std::function<bool(SimContext& ctx)>;

  /// Adds an actor whose clock starts at `start`. May be called from inside
  /// a step (the new actor is stepped from the next iteration on).
  void Add(VirtualTime start, Step step);
  /// Steps until every actor is done.
  void Run();
  /// The clock of the actor being stepped (its start time for this step).
  VirtualTime now() const { return now_; }

 private:
  struct Actor {
    SimContext ctx;
    Step step;
  };
  using Entry = std::pair<VirtualTime, size_t>;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready_;
  VirtualTime now_ = 0;
};

/// The cluster's quiesce time: the latest free_at() over every disk and
/// every NIC. A phase that starts here queues behind nothing earlier phases
/// left in flight.
VirtualTime QuiesceTime(logbase::cluster::MiniCluster* cluster);

/// Busy time of every disk and NIC, for utilization over a phase.
struct ResourceBusy {
  std::vector<VirtualTime> disk, nic_tx, nic_rx;
};
ResourceBusy SnapshotBusy(logbase::cluster::MiniCluster* cluster);

// ---------------------------------------------------------------------------
// Bench-level tracing: a span around every call the benchmark makes into a
// module's public functions, recorded on both clocks. Spans stay in memory
// and are written out when the benchmark ends.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* layer;  // "bench", "client", "tablet", "cluster", "replica"
  const char* name;
  uint64_t op;   // logical operation id (one per workload op)
  int parent;    // index of the enclosing span, -1 for a root
  VirtualTime v_begin, v_end;
  int64_t h_begin, h_end;
};

class Tracer {
 public:
  /// Opens a span; `ctx` supplies the virtual clock (may be null).
  int Open(const char* layer, const char* name, uint64_t op,
           const SimContext* ctx);
  void Close(int span, const SimContext* ctx);

  /// Self time per layer: a span's duration minus the part its child spans
  /// cover, summed per layer (virtual us, host ns, span count).
  struct LayerSelf {
    double virtual_us = 0;
    double host_ns = 0;
    uint64_t spans = 0;
  };
  std::map<std::string, LayerSelf> SelfTimeByLayer() const;
  /// Writes one JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name, uint64_t op)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      span_ = tracer_->Open(layer, name, op, SimContext::Current());
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(span_, SimContext::Current());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  int span_ = -1;
};

// ---------------------------------------------------------------------------
// What one repetition of a workload produces.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // sample count behind a percentile (0: not one)
};

struct RepResult {
  /// Virtual latency samples (us) per op kind: get, write, scan, txn.
  std::map<std::string, std::vector<double>> latency;
  /// Measured window's virtual span (start to close), ops that succeeded
  /// by its close, and client calls made / returned non-OK (MVOCC aborts
  /// included).
  double span_us = 0;
  uint64_t completed = 0;
  uint64_t calls = 0;
  uint64_t call_errors = 0;
  /// Other virtual-clock end-to-end metrics (recovery_s, space_amp).
  std::map<std::string, Metric> virt;
  /// Virtual-clock per-layer metrics and program counters (deterministic).
  std::map<std::string, double> layers;
  /// Input properties later claims cite.
  std::map<std::string, double> props;
  std::string bottleneck;
  /// Every program counter and histogram count/sum of the measured phase:
  /// compared across repetitions of one seed, never reported.
  std::map<std::string, double> fingerprint;

  /// Host seconds for boot + load + warm-up, and for the measured phase.
  double setup_s = 0;
  double phase_host_s = 0;
  /// Host-clock per-layer metrics (host.ns_per_op.*, host.recovery_s, ...).
  std::map<std::string, double> host;

  /// Ops started in the measured window, and those that did not succeed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Peak resident set of the process that ran the repetition.
  double rss_mb = 0;
  /// Traced repetitions only: self time per layer.
  std::map<std::string, Tracer::LayerSelf> self_time;
  /// Failed correctness checks, each naming its check.
  std::vector<std::string> failures;
};

/// Line-oriented, exact (%.17g) text form of a RepResult: a repetition runs
/// in a process of its own and hands its result back through a pipe.
std::string SerializeRep(const RepResult& r);
bool ParseRep(const std::string& text, RepResult* r);

/// Host ns/op per op kind plus the growth of host ns/op across the phase.
class HostOpClock {
 public:
  void Record(const char* kind, int64_t ns);
  /// Sets host.ns_per_op.<kind> and host.ns_per_op.growth (last-quarter ÷
  /// first-quarter host ns/op over the phase's ops, in issue order).
  void Report(RepResult* r) const;

 private:
  std::map<std::string, std::pair<double, uint64_t>> by_kind_;
  std::vector<int64_t> sequence_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

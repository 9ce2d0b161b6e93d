// Span-based op tracing on the virtual clock. A Span brackets one component
// step of an operation (`dfs.pread`, `index.probe`, `log.append`, ...); its
// duration is the ambient SimContext's virtual-time delta across the
// bracket, so a traced `get` decomposes into exactly the component costs the
// simulator charged (route + index probe + log read + cache).
//
// Two sinks, both optional and independent:
//  - the ambient OpTracer (installed per operation via OpTracer::Scope)
//    collects the full nested span tree for one operation;
//  - the global MetricsRegistry aggregates every span into the histogram
//    `<name>.us` whenever a SimContext is installed (without one the
//    duration is meaningless and nothing is recorded).
//
// Like SimContext, the ambient tracer is per-thread: one simulated actor
// runs on one thread at a time.

#ifndef LOGBASE_OBS_TRACE_H_
#define LOGBASE_OBS_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/sim/sim_context.h"

namespace logbase::obs {

/// One closed span: [begin_us, end_us] in virtual time, at `depth` nesting
/// levels below the operation root (0 = outermost).
struct SpanRecord {
  std::string name;
  int depth = 0;
  sim::VirtualTime begin_us = 0;
  sim::VirtualTime end_us = 0;

  sim::VirtualTime elapsed_us() const { return end_us - begin_us; }
};

/// Collects the spans of one operation. Not thread-safe; one per actor.
class OpTracer {
 public:
  /// The ambient tracer of the calling thread, or nullptr.
  static OpTracer* Current();

  /// RAII installer, mirroring SimContext::Scope.
  class Scope {
   public:
    explicit Scope(OpTracer* tracer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OpTracer* saved_;
  };

  void Clear() {
    spans_.clear();
    open_depth_ = 0;
  }

  /// Closed spans in completion order (children before parents).
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Currently open (unclosed) spans — the live nesting depth.
  int open_depth() const { return open_depth_; }

  /// Total virtual time across all closed spans named `name`.
  sim::VirtualTime TotalUs(std::string_view name) const;
  /// Number of closed spans named `name`.
  int CountOf(std::string_view name) const;

 private:
  friend class Span;

  std::vector<SpanRecord> spans_;
  int open_depth_ = 0;
};

/// RAII span. Cheap when neither a tracer nor a sim context is installed.
class Span {
 public:
  /// `name` must be a string literal (or otherwise live for the process):
  /// its address keys the cached `<name>.us` histogram handle.
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* const name_;
  OpTracer* const tracer_;  // ambient at open; close goes to the same one
  sim::VirtualTime begin_;
  int depth_ = 0;
};

}  // namespace logbase::obs

#endif  // LOGBASE_OBS_TRACE_H_

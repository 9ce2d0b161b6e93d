#include "src/obs/trace.h"

#include <unordered_map>

#include "src/obs/metrics.h"

namespace logbase::obs {

namespace {
thread_local OpTracer* g_tracer = nullptr;

// The `<name>.us` histogram of a span, resolved once per call site and
// thread. Span names are string literals, so the address identifies the
// site; registry handles are stable, so the cached pointer never dangles.
HistogramMetric* SpanHistogram(const char* name) {
  thread_local std::unordered_map<const char*, HistogramMetric*> sites;
  HistogramMetric*& histogram = sites[name];
  if (histogram == nullptr) {
    histogram = MetricsRegistry::Global().histogram(std::string(name) + ".us");
  }
  return histogram;
}
}  // namespace

OpTracer* OpTracer::Current() { return g_tracer; }

OpTracer::Scope::Scope(OpTracer* tracer) : saved_(g_tracer) {
  g_tracer = tracer;
}

OpTracer::Scope::~Scope() { g_tracer = saved_; }

sim::VirtualTime OpTracer::TotalUs(std::string_view name) const {
  sim::VirtualTime total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) total += span.elapsed_us();
  }
  return total;
}

int OpTracer::CountOf(std::string_view name) const {
  int count = 0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) count++;
  }
  return count;
}

Span::Span(const char* name)
    : name_(name),
      tracer_(OpTracer::Current()),
      begin_(sim::CurrentVirtualTime()) {
  if (tracer_ != nullptr) depth_ = tracer_->open_depth_++;
}

Span::~Span() {
  sim::VirtualTime end = sim::CurrentVirtualTime();
  if (tracer_ != nullptr) {
    tracer_->open_depth_--;
    tracer_->spans_.push_back(SpanRecord{name_, depth_, begin_, end});
  }
  // Aggregate only when a virtual clock is running — otherwise the elapsed
  // time is identically zero and would just dilute the histogram.
  if (sim::SimContext::Current() != nullptr) {
    SpanHistogram(name_)->Observe(static_cast<double>(end - begin_));
  }
}

}  // namespace logbase::obs

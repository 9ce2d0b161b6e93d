// Latency histogram with exponential buckets; the workload driver records
// per-operation virtual-time latencies here and the bench binaries report
// average / percentiles, mirroring the paper's latency figures.

#ifndef LOGBASE_UTIL_HISTOGRAM_H_
#define LOGBASE_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace logbase {

/// Collects double-valued samples (microseconds by convention) into
/// exponentially sized buckets. Not thread-safe; use one per client and
/// Merge().
class Histogram {
 public:
  Histogram();

  void Clear();
  void Add(double value);
  void Merge(const Histogram& other);

  uint64_t num() const { return num_; }
  double min() const { return num_ == 0 ? 0 : min_; }
  double max() const { return max_; }
  double Average() const;
  /// p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  std::string ToString() const;

 private:
  double min_;
  double max_;
  uint64_t num_;
  double sum_;
  std::vector<double> buckets_;
};

}  // namespace logbase

#endif  // LOGBASE_UTIL_HISTOGRAM_H_

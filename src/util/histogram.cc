#include "src/util/histogram.h"

#include <cmath>
#include <cstdio>

namespace logbase {

namespace {

// Bucket limits: 1, 2, 3, 4, 5, ... growing ~exponentially up to ~1e18.
std::vector<double> MakeLimits() {
  std::vector<double> limits;
  double v = 1;
  while (limits.size() < 154) {
    limits.push_back(v);
    double next = v * 1.3;
    if (next - v < 1) next = v + 1;
    v = std::floor(next);
  }
  return limits;
}

const std::vector<double>& Limits() {
  static const std::vector<double>& limits = *new std::vector<double>(MakeLimits());
  return limits;
}

}  // namespace

Histogram::Histogram() { Clear(); }

void Histogram::Clear() {
  min_ = 1e200;
  max_ = 0;
  num_ = 0;
  sum_ = 0;
  buckets_.assign(Limits().size() + 1, 0.0);
}

void Histogram::Add(double value) {
  const std::vector<double>& limits = Limits();
  // Binary search for the first bucket whose limit is > value.
  size_t lo = 0, hi = limits.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (limits[mid] > value) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  buckets_[lo] += 1.0;
  if (min_ > value) min_ = value;
  if (max_ < value) max_ = value;
  num_++;
  sum_ += value;
}

void Histogram::Merge(const Histogram& other) {
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  num_ += other.num_;
  sum_ += other.sum_;
  for (size_t b = 0; b < buckets_.size(); b++) {
    buckets_[b] += other.buckets_[b];
  }
}

double Histogram::Average() const {
  if (num_ == 0) return 0;
  return sum_ / static_cast<double>(num_);
}

double Histogram::Percentile(double p) const {
  if (num_ == 0) return 0;
  const std::vector<double>& limits = Limits();
  double threshold = static_cast<double>(num_) * (p / 100.0);
  double sum = 0;
  for (size_t b = 0; b < buckets_.size(); b++) {
    sum += buckets_[b];
    if (sum >= threshold) {
      // Interpolate within the bucket.
      double left_point = (b == 0) ? 0 : limits[b - 1];
      double right_point = (b < limits.size()) ? limits[b] : max_;
      double left_sum = sum - buckets_[b];
      double pos = buckets_[b] > 0 ? (threshold - left_sum) / buckets_[b] : 0;
      double r = left_point + (right_point - left_point) * pos;
      if (r < min_) r = min_;
      if (r > max_) r = max_;
      return r;
    }
  }
  return max_;
}

std::string Histogram::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu avg=%.2f min=%.2f max=%.2f p50=%.2f p95=%.2f "
                "p99=%.2f",
                static_cast<unsigned long long>(num_), Average(), min(), max_,
                Percentile(50), Percentile(95), Percentile(99));
  return buf;
}

}  // namespace logbase

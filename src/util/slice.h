// Slice: a non-owning view over a contiguous byte range, the currency of all
// key/value plumbing in logbase (RocksDB idiom). The referenced storage must
// outlive the Slice.

#ifndef LOGBASE_UTIL_SLICE_H_
#define LOGBASE_UTIL_SLICE_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace logbase {

/// A non-owning pointer/length pair over immutable bytes.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* d, size_t n) : data_(d), size_(n) {}
  /// Intentionally implicit so string literals and std::string values can be
  /// passed wherever a Slice is expected.
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(const char* s) : data_(s), size_(strlen(s)) {}               // NOLINT
  Slice(std::string_view sv) : data_(sv.data()), size_(sv.size()) {}  // NOLINT

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t n) const {
    assert(n < size_);
    return data_[n];
  }

  /// Drops the first `n` bytes from this slice.
  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  void clear() {
    data_ = "";
    size_ = 0;
  }

  std::string ToString() const { return std::string(data_, size_); }

  /// Three-way comparison: <0, ==0, >0 as in memcmp.
  int compare(const Slice& b) const {
    const size_t min_len = size_ < b.size_ ? size_ : b.size_;
    int r = memcmp(data_, b.data_, min_len);
    if (r == 0) {
      if (size_ < b.size_) {
        r = -1;
      } else if (size_ > b.size_) {
        r = +1;
      }
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& a, const Slice& b) {
  return a.size() == b.size() && memcmp(a.data(), b.data(), a.size()) == 0;
}

inline bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }

inline bool operator<(const Slice& a, const Slice& b) {
  return a.compare(b) < 0;
}

}  // namespace logbase

#endif  // LOGBASE_UTIL_SLICE_H_

// Status: the error model used across every logbase API (RocksDB/Arrow
// idiom). No exceptions cross module boundaries; fallible functions return
// Status or Result<T>.

#ifndef LOGBASE_UTIL_STATUS_H_
#define LOGBASE_UTIL_STATUS_H_

#include <string>
#include <utility>

#include "src/util/slice.h"

namespace logbase {

/// The outcome of a fallible operation: a code plus an optional message.
/// Ok statuses are cheap to copy (no allocation). [[nodiscard]]: silently
/// dropping a Status hides failures; the build treats it as an error
/// (-Werror=unused-result). Cast to void only where ignoring is deliberate.
class [[nodiscard]] Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 4,
    kIOError = 5,
    kBusy = 6,
    kTimedOut = 7,
    kAborted = 8,      // e.g. transaction validation failure
    kUnavailable = 9,  // e.g. dead data node or tablet server
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(Slice msg = Slice()) {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(Slice msg = Slice()) {
    return Status(Code::kCorruption, msg);
  }
  static Status InvalidArgument(Slice msg = Slice()) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status IOError(Slice msg = Slice()) {
    return Status(Code::kIOError, msg);
  }
  static Status Busy(Slice msg = Slice()) { return Status(Code::kBusy, msg); }
  static Status TimedOut(Slice msg = Slice()) {
    return Status(Code::kTimedOut, msg);
  }
  static Status Aborted(Slice msg = Slice()) {
    return Status(Code::kAborted, msg);
  }
  static Status Unavailable(Slice msg = Slice()) {
    return Status(Code::kUnavailable, msg);
  }
  /// Unavailable carrying a server-computed retry-after hint (microseconds,
  /// virtual time): "come back no sooner than this". fault::RetryPolicy caps
  /// its next backoff at the hint so clients neither hammer an overloaded
  /// server nor sleep far past the point tokens refill.
  static Status UnavailableWithRetryAfter(Slice msg, int64_t retry_after_us) {
    Status s(Code::kUnavailable, msg);
    s.retry_after_us_ = retry_after_us > 0 ? retry_after_us : 0;
    return s;
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }
  /// Retry-after hint in microseconds; 0 = absent.
  int64_t retry_after_us() const { return retry_after_us_; }

  /// Human-readable "<code>: <message>" form for logging and test output.
  std::string ToString() const;

 private:
  Status(Code code, Slice msg) : code_(code), msg_(msg.ToString()) {}

  Code code_;
  std::string msg_;
  int64_t retry_after_us_ = 0;
};

/// Propagates a non-ok Status to the caller (Arrow idiom).
#define LOGBASE_RETURN_NOT_OK(expr)                 \
  do {                                              \
    ::logbase::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                      \
  } while (false)

}  // namespace logbase

#endif  // LOGBASE_UTIL_STATUS_H_

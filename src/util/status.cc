#include "src/util/status.h"

namespace logbase {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kIOError:
      return "IOError";
    case Status::Code::kBusy:
      return "Busy";
    case Status::Code::kTimedOut:
      return "TimedOut";
    case Status::Code::kAborted:
      return "Aborted";
    case Status::Code::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  std::string result = CodeName(code_);
  if (!msg_.empty()) {
    result += ": ";
    result += msg_;
  }
  if (retry_after_us_ > 0) {
    result += " (retry after ";
    result += std::to_string(retry_after_us_);
    result += "us)";
  }
  return result;
}

}  // namespace logbase

// RocksDB-style Status / Result error handling for public API boundaries.
// Internal numerical kernels use FIRZEN_CHECK (see check.h) instead: a
// malformed matrix shape is a programming error, not a runtime condition.
#ifndef FIRZEN_UTIL_STATUS_H_
#define FIRZEN_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace firzen {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIOError,
};

/// Lightweight status object returned by fallible public APIs.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> carries either a value or a Status describing the failure.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}        // NOLINT(runtime/explicit)
  Result(Status status) : value_(std::move(status)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(value_); }
  const Status& status() const { return std::get<Status>(value_); }

  T& value() { return std::get<T>(value_); }
  const T& value() const { return std::get<T>(value_); }

 private:
  std::variant<T, Status> value_;
};

}  // namespace firzen

#endif  // FIRZEN_UTIL_STATUS_H_

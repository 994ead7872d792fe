// Lightweight status / expected-value types used across the CARAT KOP
// libraries. Kernel-style code paths (module loading, ioctl handling,
// policy updates) report recoverable errors through these instead of
// exceptions; exceptions are reserved for simulated kernel panics.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace kop {

/// Error categories, loosely mirroring the errno values the real kernel
/// module interface would return from init/ioctl paths.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,   // EINVAL
  kNotFound,          // ENOENT
  kAlreadyExists,     // EEXIST
  kPermissionDenied,  // EACCES
  kOutOfMemory,       // ENOMEM
  kOutOfRange,        // EFAULT-ish: address outside the physical map
  kNoSpace,           // ENOSPC: e.g. region table full
  kBadModule,         // ENOEXEC: module failed validation
  kBusy,              // EBUSY
  kUnimplemented,     // ENOSYS
  kTimeout,           // ETIME: watchdog/step-budget expiry
  kInterrupted,       // EINTR: call aborted by a cross-CPU stop request
  kInternal,          // anything that indicates a bug in the simulator
};

/// Human-readable name for an error code ("invalid_argument", ...).
std::string_view ErrorCodeName(ErrorCode code);

/// A success-or-error result with a message. One pointer wide: OK is a
/// null pointer, so the success path never allocates, copies or frees;
/// an error owns its code and message out of line. Copies deep-copy the
/// error. A moved-from Status reads OK.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(ErrorCode code, std::string message)
      : rep_(std::make_unique<Rep>(Rep{code, std::move(message)})) {
    assert(code != ErrorCode::kOk && "use Status() / OkStatus() for success");
  }
  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status Ok() { return Status(); }

  bool ok() const { return rep_ == nullptr; }
  ErrorCode code() const { return rep_ ? rep_->code : ErrorCode::kOk; }
  const std::string& message() const;

  /// "ok" or "<code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct Rep {
    ErrorCode code;
    std::string message;
  };

  std::unique_ptr<Rep> rep_;
};

inline Status OkStatus() { return Status::Ok(); }

inline Status InvalidArgument(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) {
  return Status(ErrorCode::kNotFound, std::move(msg));
}
inline Status AlreadyExists(std::string msg) {
  return Status(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Status PermissionDenied(std::string msg) {
  return Status(ErrorCode::kPermissionDenied, std::move(msg));
}
inline Status OutOfMemory(std::string msg) {
  return Status(ErrorCode::kOutOfMemory, std::move(msg));
}
inline Status OutOfRange(std::string msg) {
  return Status(ErrorCode::kOutOfRange, std::move(msg));
}
inline Status NoSpace(std::string msg) {
  return Status(ErrorCode::kNoSpace, std::move(msg));
}
inline Status BadModule(std::string msg) {
  return Status(ErrorCode::kBadModule, std::move(msg));
}
inline Status Busy(std::string msg) {
  return Status(ErrorCode::kBusy, std::move(msg));
}
inline Status Unimplemented(std::string msg) {
  return Status(ErrorCode::kUnimplemented, std::move(msg));
}
inline Status Timeout(std::string msg) {
  return Status(ErrorCode::kTimeout, std::move(msg));
}
inline Status Interrupted(std::string msg) {
  return Status(ErrorCode::kInterrupted, std::move(msg));
}
inline Status Internal(std::string msg) {
  return Status(ErrorCode::kInternal, std::move(msg));
}

/// Result<T>: either a value or a Status. Modeled after absl::StatusOr.
/// Holds the value as an optional beside a Status that is OK exactly when
/// the value is present, so an OK Result carries one null pointer of
/// error state. That holds after a move too: a move copies the Status
/// (null, so free, unless it is an error), and a moved-from error Result
/// still reads its error.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}         // NOLINT(implicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(implicit)
    assert(!status_.ok() &&
           "Result<T> must not hold an OK status without a value");
  }
  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&& other)
      : value_(std::move(other.value_)), status_(other.status_) {}
  Result& operator=(Result&& other) {
    value_ = std::move(other.value_);
    status_ = other.status_;
    return *this;
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const {
    assert(ok() == status_.ok());
    return status_;
  }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the value or `fallback` when this holds an error.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

// Propagate-on-error helpers, kernel-module-init style.
#define KOP_RETURN_IF_ERROR(expr)               \
  do {                                          \
    ::kop::Status kop_status_ = (expr);         \
    if (!kop_status_.ok()) return kop_status_;  \
  } while (0)

#define KOP_INTERNAL_CONCAT_(a, b) a##b
#define KOP_INTERNAL_CONCAT(a, b) KOP_INTERNAL_CONCAT_(a, b)

#define KOP_ASSIGN_OR_RETURN(lhs, expr) \
  KOP_ASSIGN_OR_RETURN_IMPL(KOP_INTERNAL_CONCAT(kop_result_, __LINE__), lhs, \
                            expr)

#define KOP_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

}  // namespace kop

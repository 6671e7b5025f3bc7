// Status / Result<T>: error propagation for *expected* failures.
//
// Library code never throws for conditions a caller is expected to handle
// (infeasible optimization, empty region, bad config).  Instead functions
// return Status (void results) or Result<T>.  Both carry a StatusCode and
// a human-readable message.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/assert.h"

namespace nomloc::common {

// Canonical error space for the whole library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed
  kFailedPrecondition,// object/system not in a state to do this
  kNotFound,          // lookup missed
  kInfeasible,        // optimization problem has empty feasible set
  kUnbounded,         // optimization objective unbounded below
  kNumericalError,    // solver diverged / matrix singular
  kExhausted,         // iteration / resource limit hit
  kDataCorruption,    // malformed/truncated/NaN input from outside
  kInternal,          // "should not happen" bucket
};

/// Short stable name for a code, e.g. "INFEASIBLE".
std::string_view StatusCodeName(StatusCode code) noexcept;

/// A success-or-error value; cheap to copy on success.
class [[nodiscard]] Status {
 public:
  /// Constructs OK.
  Status() noexcept = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return Status(); }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status InvalidArgument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status Infeasible(std::string msg) {
  return {StatusCode::kInfeasible, std::move(msg)};
}
inline Status Unbounded(std::string msg) {
  return {StatusCode::kUnbounded, std::move(msg)};
}
inline Status NumericalError(std::string msg) {
  return {StatusCode::kNumericalError, std::move(msg)};
}
inline Status Exhausted(std::string msg) {
  return {StatusCode::kExhausted, std::move(msg)};
}
inline Status DataCorruption(std::string msg) {
  return {StatusCode::kDataCorruption, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}

/// Value-or-Status.  Access to value() on an error is a contract violation.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit construction from a value or an error keeps call sites terse:
  //   Result<int> F() { if (bad) return InvalidArgument("…"); return 42; }
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    NOMLOC_REQUIRE(!status_.ok());
  }

  bool ok() const noexcept { return value_.has_value(); }

  /// OK when the result holds a value.
  const Status& status() const noexcept { return status_; }

  const T& value() const& {
    NOMLOC_REQUIRE(ok());
    return *value_;
  }
  T& value() & {
    NOMLOC_REQUIRE(ok());
    return *value_;
  }
  T&& value() && {
    NOMLOC_REQUIRE(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` on error.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  // value_ holds a value exactly when status_ is OK.  Not a
  // std::variant<T, Status>: GCC 12 at -O2 with -fsanitize=undefined
  // reports -Wmaybe-uninitialized false positives through its storage.
  std::optional<T> value_;
  Status status_;
};

/// Result<void>: success-or-error with no payload — the return type of
/// validation hooks (`Config::Validate()`).  Unlike the primary template it
/// is constructible from an OK status and default-constructs to OK.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() noexcept = default;
  Result(Status status) noexcept : status_(std::move(status)) {}  // NOLINT

  bool ok() const noexcept { return status_.ok(); }
  const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

}  // namespace nomloc::common

/// Propagate an error Status from an expression returning Status.
#define NOMLOC_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::nomloc::common::Status nomloc_status_ = (expr); \
    if (!nomloc_status_.ok()) return nomloc_status_;  \
  } while (0)

#define NOMLOC_INTERNAL_CONCAT2(a, b) a##b
#define NOMLOC_INTERNAL_CONCAT(a, b) NOMLOC_INTERNAL_CONCAT2(a, b)

#define NOMLOC_INTERNAL_ASSIGN_OR_RETURN(tmp, lhs, expr) \
  auto tmp = (expr);                                     \
  if (!tmp.ok()) return tmp.status();                    \
  lhs = std::move(tmp).value()

/// Bind `lhs` to the value of a Result-returning expression or propagate.
#define NOMLOC_ASSIGN_OR_RETURN(lhs, expr)                                   \
  NOMLOC_INTERNAL_ASSIGN_OR_RETURN(                                          \
      NOMLOC_INTERNAL_CONCAT(nomloc_result_, __LINE__), lhs, expr)

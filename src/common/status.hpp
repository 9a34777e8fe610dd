// Lightweight status / expected types used across the HERMES libraries.
//
// Most of the toolchain reports recoverable errors (bad input program, malformed
// load list, timing violation, ...) through Status / Result<T> rather than
// exceptions, so that callers such as the benchmark harness can enumerate
// failures without unwinding.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "common/enum_names.hpp"

namespace hermes {

/// Broad error categories shared by all HERMES tools.
#define HERMES_ERROR_CODES(X)                                                 \
  X(kOk, "ok")                                                                \
  /* caller passed something malformed */                                     \
  X(kInvalidArgument, "invalid_argument")                                     \
  /* frontend could not parse the input program */                            \
  X(kParseError, "parse_error")                                               \
  /* frontend type checking failed */                                         \
  X(kTypeError, "type_error")                                                 \
  /* construct outside the supported C subset / feature set */                \
  X(kUnsupported, "unsupported")                                              \
  /* device capacity exceeded (LUTs, DSPs, RAMs, slots) */                    \
  X(kResourceExhausted, "resource_exhausted")                                 \
  /* STA or scheduler could not meet the clock constraint */                  \
  X(kTimingViolation, "timing_violation")                                     \
  /* checksum / signature mismatch (boot, bitstream) */                       \
  X(kIntegrityError, "integrity_error")                                       \
  /* hypervisor space/time isolation violation */                             \
  X(kIsolationFault, "isolation_fault")                                       \
  /* bounded wait / watchdog expired (hang converted to error) */             \
  X(kDeadlineExceeded, "deadline_exceeded")                                   \
  X(kNotFound, "not_found") X(kInternal, "internal")                          \
  /* caller withdrew the request (compile-service jobs) */                    \
  X(kCancelled, "cancelled")
HERMES_ENUM(ErrorCode, int, HERMES_ERROR_CODES)

/// True for transient failures a bounded retry ladder may re-attempt:
/// kInternal (subsystem hiccup, e.g. SLVERR or an injected node fault) and
/// kDeadlineExceeded (a bounded wait expired). Every other code is permanent
/// for the caller that observed it and must propagate unchanged. The dataflow
/// node re-execution policy retries exactly this set; the AXI master retries
/// the kInternal subset (a watchdog-abandoned transaction is not re-issued).
constexpr bool is_retriable(ErrorCode code) {
  return code == ErrorCode::kInternal || code == ErrorCode::kDeadlineExceeded;
}

/// A success-or-error value. Cheap to copy on the success path.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return {}; }
  static Status Error(ErrorCode code, std::string message) {
    return {code, std::move(message)};
  }

  [[nodiscard]] bool ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Either a value or a Status explaining why there is none.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(data_).ok() && "Result error must carry a non-ok Status");
  }

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(data_); }
  [[nodiscard]] const Status& status() const {
    static const Status kOkStatus;
    return ok() ? kOkStatus : std::get<Status>(data_);
  }

  [[nodiscard]] T& value() {
    assert(ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] const T& value() const {
    assert(ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& take() {
    assert(ok());
    return std::move(std::get<T>(data_));
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace hermes

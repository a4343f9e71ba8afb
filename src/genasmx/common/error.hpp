#pragma once
// Structured error model for the whole stack. Every failure that crosses
// a subsystem boundary (io, mapper, engine, pipeline, tools) carries an
// ErrorCode from the taxonomy below plus machine-readable context (file
// path, 1-based line, byte offset, record name), and renders as ONE
// actionable line — a hard requirement for a mapper that must stay up
// through malformed client input: callers branch on code(), humans read
// what().
//
// The taxonomy drives policy, not just wording:
//   kMalformedInput   bad bytes from outside (FASTQ syntax, corrupt
//                     index) — skippable per record under a degradation
//                     policy, never a reason to kill a server
//   kIoTransient      the operation may succeed if retried (EINTR/
//                     EAGAIN short writes) — retried with bounded
//                     backoff before escalating
//   kIoFatal          the environment is broken (ENOSPC, EIO, missing
//                     file) — fail the run cleanly, exit non-zero
//   kResourceLimit    an admission cap tripped (read too long, batch
//                     too large) — degrade the unit, keep the run
//   kInternal         a broken invariant in our own code — never
//                     degraded away silently
//
// Error derives from std::runtime_error so pre-taxonomy catch sites keep
// working; Status is the non-throwing mirror for APIs that aggregate
// failures (engine task capture, pipeline RunReport) instead of
// unwinding.

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gx::common {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kMalformedInput,
  kIoTransient,
  kIoFatal,
  kResourceLimit,
  kInternal,
};

inline constexpr std::size_t kErrorCodeCount = 6;

/// Stable kebab-case name ("malformed-input", ...) used in rendered
/// messages, RunReport counters, and CI greps.
[[nodiscard]] std::string_view errorCodeName(ErrorCode code) noexcept;

/// Where in the input the failure happened. All fields optional; unset
/// fields are omitted from the rendered message.
struct ErrorContext {
  std::string path{};    ///< file involved ("" = none/unknown)
  std::string record{};  ///< record name or index ("" = none)
  std::uint64_t line = 0;        ///< 1-based line number (0 = unknown)
  std::uint64_t byte_offset = kNoOffset;  ///< byte offset (kNoOffset = unknown)

  static constexpr std::uint64_t kNoOffset = ~std::uint64_t{0};
};

/// Render "message [code] context..." as one line. Exposed so Status and
/// non-throwing paths produce byte-identical wording to Error::what().
[[nodiscard]] std::string formatError(ErrorCode code, std::string_view message,
                                      const ErrorContext& ctx);

/// The throwing form: an exception that is also a structured value.
/// what() is the one-line rendering of (code, message, context).
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message, ErrorContext ctx = {})
      : std::runtime_error(formatError(code, message, ctx)),
        code_(code),
        ctx_(std::move(ctx)) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const ErrorContext& context() const noexcept { return ctx_; }

 private:
  ErrorCode code_;
  ErrorContext ctx_;
};

/// The non-throwing mirror: a code plus the already-rendered one-line
/// message. Default-constructed Status is ok.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Capture an in-flight exception as a Status (Error keeps its code;
  /// anything else maps to kInternal — foreign exceptions are by
  /// definition invariants we did not model).
  [[nodiscard]] static Status fromCurrentException() noexcept;

  [[nodiscard]] bool ok() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Per-code occurrence counters, indexable by ErrorCode. The aggregation
/// unit of RunReport and the fault-matrix assertions.
struct ErrorCounts {
  std::array<std::uint64_t, kErrorCodeCount> counts{};

  void add(ErrorCode code, std::uint64_t n = 1) noexcept {
    counts[static_cast<std::size_t>(code)] += n;
  }
  [[nodiscard]] std::uint64_t operator[](ErrorCode code) const noexcept {
    return counts[static_cast<std::size_t>(code)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (std::size_t i = 1; i < kErrorCodeCount; ++i) t += counts[i];
    return t;  // kOk excluded
  }
};

}  // namespace gx::common

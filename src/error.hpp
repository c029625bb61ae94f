#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace psclip {

/// Error taxonomy for the whole library. Every failure that crosses a
/// module boundary is reported as a psclip::Error carrying one of these
/// codes, so callers can route on the class of failure (reject the
/// request, degrade the slab, shed load) without string-matching messages.
enum class ErrorCode {
  kParse,          ///< malformed/truncated WKT or GeoJSON input
  kNonFinite,      ///< a NaN/Inf/overflowing coordinate was produced or read
  kSlabFailure,    ///< a slab task of Algorithm 2 failed (see Alg2Stats)
  kResource,       ///< allocation or thread-resource exhaustion
  kTaskFailure,    ///< aggregated parallel task failures (parallel_for)
  kInjected,       ///< deterministic test fault (PSCLIP_FAULT_INJECTION builds)
  kCancelled,        ///< request cancelled via par::CancelToken::cancel()
  kDeadlineExceeded, ///< request deadline expired at a cooperative checkpoint
  kBudgetExceeded,   ///< request memory budget exceeded (par::ResourceBudget)
};

inline const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kNonFinite: return "non-finite-coordinate";
    case ErrorCode::kSlabFailure: return "slab-failure";
    case ErrorCode::kResource: return "resource";
    case ErrorCode::kTaskFailure: return "task-failure";
    case ErrorCode::kInjected: return "injected";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kBudgetExceeded: return "budget-exceeded";
  }
  return "?";
}

/// True for the error classes raised by request governance (cancellation,
/// deadline, budget). The degradation ladder treats these differently from
/// slab-local faults: cancellation/deadline abort the whole request (time
/// lost in one slab is lost globally, retrying cannot help), while budget
/// errors may retry once (a transient hog's spike releases with its
/// attempt) before the slab is reported missing or the request fails.
inline bool is_governance(ErrorCode c) {
  return c == ErrorCode::kCancelled || c == ErrorCode::kDeadlineExceeded ||
         c == ErrorCode::kBudgetExceeded;
}

/// Structured library error: an error code plus, where it applies, the byte
/// offset into the input that triggered it (parsers). Derives from
/// std::runtime_error so call sites that only know std::exception still see
/// a fully formatted message.
class Error : public std::runtime_error {
 public:
  /// Sentinel for "no byte offset applies to this error".
  static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

  Error(ErrorCode code, const std::string& message,
        std::size_t offset = kNoOffset)
      : std::runtime_error(format(code, message, offset)),
        code_(code),
        offset_(offset) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

  /// Byte offset into the offending input, or kNoOffset.
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  static std::string format(ErrorCode code, const std::string& message,
                            std::size_t offset) {
    std::string s = "psclip:";
    s += to_string(code);
    s += ": ";
    s += message;
    if (offset != kNoOffset) {
      s += " (byte ";
      s += std::to_string(offset);
      s += ')';
    }
    return s;
  }

  ErrorCode code_;
  std::size_t offset_;
};

}  // namespace psclip

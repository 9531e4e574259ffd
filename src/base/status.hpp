/**
 * @file
 * Typed error propagation for paths that must not kill the process.
 *
 * The simulator's default posture is fail-fast (`panic`/`fatal` in
 * logging.hpp): a mis-configured fabric is a bug and should abort.
 * Fault-injection campaigns invert that contract — a deadlocked run or
 * a rejected placement is a *data point*, not a crash — so the runner
 * and compiler expose `try*` variants returning a Status that callers
 * can record and move past.
 */

#ifndef PLAST_BASE_STATUS_HPP
#define PLAST_BASE_STATUS_HPP

#include <string>
#include <utility>

namespace plast
{

enum class StatusCode
{
    kOk = 0,
    kCompileError,     ///< placement/routing/validation rejected the program
    kValidationError,  ///< fabric output mismatched the reference evaluator
    kDeadlock,         ///< no progress (empty active set, or a stall)
    kUncorrectable,    ///< ECC detected a multi-bit error it cannot fix
    kAddressFault,     ///< a scratchpad or DRAM access fell outside
                       ///< its buffer or the image
    kMaxCycles,        ///< cycle budget exhausted before completion
    kMismatch,         ///< generic result divergence (fuzz oracle)
    kInvalidArgument,  ///< caller misuse (bad CLI flag, bad checkpoint)
    kInternal,         ///< invariant violation surfaced non-fatally
    kCancelled,        ///< cooperative cancel honored mid-run
    kDeadlineExceeded, ///< per-job wall-clock deadline passed mid-run
    kShed,             ///< admission control rejected the job (overload)
    kCircuitOpen,      ///< tenant circuit breaker fast-failed the job
    kNotFound,         ///< a lookup (e.g. persistent-store probe) missed
    kCorrupt,          ///< stored record failed validation (torn write,
                       ///< bit rot, version mismatch); quarantined
    kUnavailable,      ///< a backing resource is unusable (store dir
                       ///< inaccessible, lock held); degrade, don't die
};

inline const char *
statusCodeName(StatusCode code)
{
    switch (code)
    {
    case StatusCode::kOk: return "ok";
    case StatusCode::kCompileError: return "compile-error";
    case StatusCode::kValidationError: return "validation-error";
    case StatusCode::kDeadlock: return "deadlock";
    case StatusCode::kUncorrectable: return "uncorrectable";
    case StatusCode::kAddressFault: return "address-fault";
    case StatusCode::kMaxCycles: return "max-cycles";
    case StatusCode::kMismatch: return "mismatch";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kShed: return "shed";
    case StatusCode::kCircuitOpen: return "circuit-open";
    case StatusCode::kNotFound: return "not-found";
    case StatusCode::kCorrupt: return "corrupt";
    case StatusCode::kUnavailable: return "unavailable";
    }
    return "unknown";
}

/** Success-or-diagnostic result. Default-constructed == ok. */
class [[nodiscard]] Status
{
  public:
    Status() = default;
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    bool ok() const { return code_ == StatusCode::kOk; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    std::string
    toString() const
    {
        if (ok())
            return "ok";
        return std::string(statusCodeName(code_)) + ": " + message_;
    }

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

} // namespace plast

#endif // PLAST_BASE_STATUS_HPP

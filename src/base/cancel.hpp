/**
 * @file
 * Cooperative cancellation for long-running host-driven work (the
 * cycle simulator above all). A CancelToken carries two independent
 * stop signals:
 *
 *   - an explicit cancel request (Server::cancelJob, drain-now paths,
 *     a single-flight follower abandoning its wait);
 *   - an absolute host-clock deadline in microseconds (the serve
 *     daemon's per-job latency budget).
 *
 * The token is polled, never delivered: Fabric::runChecked checks it
 * every 2,048 simulated cycles, so a worker thread aborts a hung or
 * oversized simulation within a bounded wall slice and returns a typed
 * kCancelled / kDeadlineExceeded status instead of occupying its
 * worker forever. Polling costs one relaxed atomic load per window
 * (plus a clock read only when a deadline is armed), which is why it
 * is safe to leave enabled on the hot path.
 *
 * Tokens are shared by pointer between the requesting thread and the
 * executing thread; both sides only touch atomics, so there is no
 * lock and no lifetime coupling beyond "the requester keeps the token
 * alive until the job record is retired" (the serve worker owns the
 * token for exactly the scope of the job).
 */

#ifndef PLAST_BASE_CANCEL_HPP
#define PLAST_BASE_CANCEL_HPP

#include <atomic>
#include <cstdint>

namespace plast
{

class CancelToken
{
  public:
    CancelToken() = default;

    // Tokens are shared by address; copying one would silently split
    // the cancel signal from its observers.
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Request cooperative stop (idempotent, thread-safe). */
    void
    requestCancel()
    {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    bool
    cancelRequested() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /** Arm an absolute deadline on the host microsecond clock
     *  (HostProfiler::nowUs time base). 0 disarms. */
    void
    setDeadlineUs(uint64_t absUs)
    {
        deadlineUs_.store(absUs, std::memory_order_relaxed);
    }

    uint64_t
    deadlineUs() const
    {
        return deadlineUs_.load(std::memory_order_relaxed);
    }

    bool
    hasDeadline() const
    {
        return deadlineUs() != 0;
    }

    /** True once the armed deadline has passed (`nowUs` from the same
     *  clock that armed it). Never true without a deadline. */
    bool
    expired(uint64_t nowUs) const
    {
        uint64_t d = deadlineUs();
        return d != 0 && nowUs >= d;
    }

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<uint64_t> deadlineUs_{0};
};

} // namespace plast

#endif // PLAST_BASE_CANCEL_HPP

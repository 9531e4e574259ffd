/**
 * @file
 * Activity-driven cycle scheduler. Instead of densely ticking every
 * unit and stream each cycle, the scheduler keeps an active set:
 *
 *  - units evaluate only while they report kActive; a kBlocked unit
 *    sleeps until a stream attached to one of its ports delivers
 *    (consumer wake) or drains (producer wake), or the memory system
 *    wakes it directly. The memory system wakes an AG when a response
 *    completes its front command or acks its last outstanding write.
 *    A dense AG its coalescing unit refused (port taken this cycle, or
 *    too few outstanding slots) waits on that unit's list; each memory
 *    phase wakes the lowest-index waiter whose bursts fit, the one
 *    dense ticking admits next cycle. A sparse AG refused for the port
 *    retries next cycle, and one refused for budget or cache lines
 *    sleeps until a burst on its unit retires;
 *  - the memory system runs on cycles where an AG submitted a command
 *    and on its own next event (a response due, a channel issue, a
 *    coalescer issue, the end of a retry backoff); while it is not
 *    quiescent every cycle still counts as progress;
 *  - streams commit only on cycles where traffic was staged or an
 *    in-flight element is due; each in-flight element schedules its
 *    own arrival cycle on a timing wheel, so regions where only
 *    arrivals and memory events are pending can be skipped wholesale
 *    (fast-forward). Timers due on one cycle fire in the order they
 *    were scheduled; that order reaches only the trace, as wakes are
 *    applied in registration order and host sinks drain in a fixed
 *    order.
 *
 * Deadlock detection falls out of the design: an empty active set
 * (no runnable unit, no memory event, no dirty stream, no pending
 * arrival) while the root controller is incomplete IS the deadlock
 * condition — no windowed no-progress scan required.
 *
 * Determinism: units evaluate in registration order, which is the
 * fabric's one unit list (PCUs, PMUs, AGs, boxes) that dense ticking
 * also walks, so order-sensitive interactions (e.g. two AGs racing for
 * one coalescing unit) resolve exactly as under dense ticking.
 * Cycle-level results are bit-identical to the dense-tick baseline.
 */

#ifndef PLAST_SIM_SCHEDULER_HPP
#define PLAST_SIM_SCHEDULER_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "base/trace.hpp"
#include "sim/simobject.hpp"

namespace plast
{

class MemSystem;
class StreamBase;

class Scheduler
{
  public:
    // ---- registration (fabric construction) --------------------------
    /** Register a unit; starts awake. Registration order defines the
     *  deterministic evaluation order. */
    void addUnit(SimObject *u);
    /** Register the memory system (its phase runs after all units). */
    void addMem(MemSystem *m);
    /** Register a routed stream (commit phase). */
    void addStream(StreamBase *s);

    // ---- wake rules --------------------------------------------------
    /** Evaluate `u` starting next cycle. Inline: this is the hottest
     *  scheduler entry point (every stream delivery and memory response
     *  lands here). */
    void
    wakeUnit(SimObject *u)
    {
        if (u->inRun_ || u->wakeQueued_)
            return;
        u->wakeQueued_ = true;
        wakePending_.push_back(u);
        traceInstant(trace_, u->traceTrack(), TraceName::kWake,
                     curCycle_);
    }
    /** Evaluate `u` on the coming cycle. Only between cycles. */
    void wakeNow(SimObject *u);
    /** `u` was hard-faulted at this cycle boundary: it evaluates on the
     *  coming cycle, classifying it stuck as dense ticking does, and
     *  the memory system re-picks its waiters without it. */
    void unitStuck(SimObject *u);
    /** The memory phase must run this cycle (an AG submitted). */
    void memWork() { memWork_ = true; }
    /** Commit `s` at the next commit phase. */
    void streamDirty(StreamBase *s);

    /** One full cycle: evaluate awake units in order, run the memory
     *  phase if needed, commit dirty streams and route wakes. */
    void runCycle(Cycles now);

    // ---- queries -----------------------------------------------------
    /** True when the next cycle has work: an awake unit, a pending
     *  wake, a dirty stream or forced memory work. Otherwise the clock
     *  can jump to nextEventCycle(), and with no event scheduled
     *  nothing can ever happen again without external input. */
    bool
    workPending() const
    {
        return !run_.empty() || !wakePending_.empty() || !dirty_.empty() ||
               memWork_;
    }
    /** Earliest scheduled arrival commit or memory event (kNeverCycle
     *  when none). */
    Cycles
    nextEventCycle() const
    {
        return std::min(nextTimer(), memNextAt_);
    }
    /** Did the last runCycle see unit or memory activity? (The same
     *  progress bit dense ticking records from every unit's report.) */
    bool progressLastCycle() const { return progress_; }
    /** Host-bound streams that delivered during the last runCycle. */
    const std::vector<StreamBase *> &deliveredHost() const
    {
        return deliveredHost_;
    }
    /**
     * Re-arm everything after a checkpoint restore or a fault
     * injection: every unit re-enters the active set, the timing wheel
     * empties, and every stream is queued for commit (re-arming its own
     * arrival timer). Waking a unit that is architecturally blocked is
     * a no-op by construction (it evaluates once, reports kBlocked and
     * sleeps again), so this is always safe — it trades a few
     * evaluations for not having to checkpoint the scheduler's
     * transient bookkeeping at all.
     */
    void rearmAll();

    /** Attach the fabric's trace sink: sleep/wake instants land on each
     *  unit's own track, the active-set counter on `ownTrack`. */
    void
    setTrace(TraceSink *sink, uint16_t ownTrack)
    {
        trace_ = sink;
        traceTrack_ = ownTrack;
    }

  private:
    static bool bySeq(const SimObject *a, const SimObject *b);
    void scheduleArrival(Cycles cycle, StreamBase *s);
    void fireTimers(Cycles now);
    Cycles nextTimer() const;
    void applyWakes();

    uint32_t nextSeq_ = 0;
    std::vector<SimObject *> run_;         ///< awake units, seq-sorted
    std::vector<SimObject *> wakePending_; ///< wakes for next cycle
    std::vector<SimObject *> allUnits_;    ///< every registered unit
    std::vector<StreamBase *> allStreams_; ///< every registered stream
    MemSystem *mem_ = nullptr;
    bool memWork_ = false; ///< memory phase forced this cycle
    /** The memory phase's next event; a memory system with one is not
     *  quiescent, which counts as progress. */
    Cycles memNextAt_ = kNeverCycle;
    std::vector<StreamBase *> dirty_;      ///< commit next commit phase
    std::vector<StreamBase *> commitRun_;  ///< scratch for runCycle
    /** A pending arrival commit. */
    struct Timer
    {
        Cycles cycle;
        StreamBase *stream;
    };
    /** Wheel turn, in cycles: one bit of wheelBits_ per bucket. Routed
     *  stream latencies are far shorter; a longer timer waits in its
     *  bucket for as many turns as it needs. */
    static constexpr uint32_t kWheelSize = 64;
    /** Pending arrival commits on a timing wheel: bucket `c %
     *  kWheelSize` holds the timers for cycle c, and for c plus whole
     *  turns, in the order they were scheduled. Entries are lazily
     *  invalidated: a stream re-armed to a different cycle leaves its
     *  old entry behind, which fires as a harmless no-op commit. */
    std::array<std::vector<Timer>, kWheelSize> wheel_;
    uint64_t wheelBits_ = 0; ///< bit b set: wheel_[b] is non-empty
    std::vector<StreamBase *> deliveredHost_;
    bool progress_ = false;

    TraceSink *trace_ = nullptr;
    uint16_t traceTrack_ = 0;
    /** The cycle runCycle last ran: wake instants' timestamp, and every
     *  pending timer is due after it. */
    Cycles curCycle_ = 0;
    size_t lastActiveSet_ = ~size_t{0};
};

inline void
SimObject::requestWake()
{
    if (sched_)
        sched_->wakeUnit(this);
}

} // namespace plast

#endif // PLAST_SIM_SCHEDULER_HPP

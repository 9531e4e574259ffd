/**
 * @file
 * The unified component interface of the activity-driven simulation
 * core. Every ticked component — compute/memory units, the off-chip
 * memory system, and the routed streams — is a SimObject with a
 * two-phase tick:
 *
 *   evaluate(now)  reads committed state, performs this cycle's work
 *                  and stages stream pushes/pops (units implement this
 *                  phase; the memory system runs its own step between
 *                  the units and the commit, on its events);
 *   commit(now)    makes staged state visible to the next cycle
 *                  (streams implement this phase).
 *
 * The activity contract: evaluate() returns kActive when the object
 * did work this cycle or can still do work next cycle without new
 * input, and kBlocked when nothing can change until an external wake
 * event (an input arrival, an output drain, or a memory-system
 * callback). The Scheduler uses that report to drop blocked objects
 * from the per-cycle active set; wake events re-arm them.
 */

#ifndef PLAST_SIM_SIMOBJECT_HPP
#define PLAST_SIM_SIMOBJECT_HPP

#include <cstdint>
#include <string>

#include "base/logging.hpp"
#include "base/trace.hpp"
#include "base/types.hpp"

namespace plast
{

class Scheduler;

/** Sentinel cycle value: "no pending event". */
inline constexpr Cycles kNeverCycle = ~Cycles{0};

/** Record an access outside a scratchpad buffer or the DRAM image in
 *  the fabric's address-fault `latch` (kept: the first one); the caller
 *  drops the access and runChecked stops with kAddressFault after the
 *  step. With no latch bound (a unit test's component) it panics. */
inline void
latchAddressFault(std::string *latch, const std::string &what)
{
    panic_if(!latch, "%s", what.c_str());
    if (latch->empty())
        *latch = what;
}

enum class Activity : uint8_t
{
    kBlocked, ///< did nothing; cannot progress until an external wake
    kActive,  ///< did work, or may do work next cycle without new input
};

/** Outcome of a stream commit, used by the scheduler to route wakes. */
struct CommitResult
{
    /** >= 1 element became visible to the consumer this cycle. */
    bool delivered = false;
    /** >= 1 staged pop was applied (producer-side space freed). */
    bool drained = false;
    /** Earliest cycle at which this object must commit again for an
     *  in-flight element to arrive on time (kNeverCycle when none). */
    Cycles nextArrival = kNeverCycle;
};

class SimObject
{
  public:
    virtual ~SimObject() = default;

    /** Phase 1: do this cycle's work, staging stream traffic. */
    virtual Activity evaluate(Cycles now)
    {
        (void)now;
        return Activity::kBlocked;
    }

    /** Phase 2: make staged state architecturally visible. */
    virtual CommitResult commit(Cycles now)
    {
        (void)now;
        return {};
    }

    /** Ask the scheduler (when attached) to evaluate this object next
     *  cycle. No-op under dense ticking. Used by the memory system to
     *  wake an AG on a response it can act on, on its turn at a
     *  coalescing unit, and on freed coalescer capacity. */
    void requestWake();

    /** Attach the fabric's trace sink (null = tracing off). */
    void
    bindTrace(TraceSink *sink, uint16_t track)
    {
        trace_ = sink;
        traceTrack_ = track;
    }
    uint16_t traceTrack() const { return traceTrack_; }

  protected:
    Scheduler *sched() const { return sched_; }

    TraceSink *trace_ = nullptr; ///< null when tracing is off
    uint16_t traceTrack_ = 0;

  private:
    friend class Scheduler;
    Scheduler *sched_ = nullptr;
    uint32_t seq_ = 0;          ///< deterministic evaluation order
    bool inRun_ = false;        ///< member of the current active set
    bool wakeQueued_ = false;   ///< pending wake for the next cycle
};

} // namespace plast

#endif // PLAST_SIM_SIMOBJECT_HPP

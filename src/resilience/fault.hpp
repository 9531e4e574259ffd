/**
 * @file
 * Fault model library: the taxonomy of hardware upsets the simulator
 * can inject, seeded random fault plans over a fabric configuration,
 * and the injector that delivers the events into a running fabric.
 *
 * Fault kinds and where they strike:
 *
 *  - transient bit flips in PCU pipeline registers (unprotected SIMD
 *    datapath latches);
 *  - transient bit flips in PMU scratchpad words (SECDED-protected
 *    when PmuParams::ecc is set);
 *  - control-token drop / duplication in switch-box registers;
 *  - DRAM burst response errors (SECDED-protected when DramParams::ecc
 *    is set: single-bit corrected, double-bit detected and retried);
 *  - hard faults: a PCU or PMU freezes permanently (stuck unit).
 *
 * Every event is timestamped; the fabric applies due events at cycle
 * boundaries, so a plan plus a seed is a complete, reproducible fault
 * scenario. DRAM events are the exception — they are data-path
 * triggered, firing on the next read-burst response at or after their
 * nominal cycle (an idle memory bus cannot observe a response error).
 */

#ifndef PLAST_RESILIENCE_FAULT_HPP
#define PLAST_RESILIENCE_FAULT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "base/types.hpp"
#include "sim/memsys.hpp"

namespace plast::resilience
{

enum class FaultKind : uint8_t
{
    kPcuRegFlip,     ///< transient: pipeline-register bit flip
    kPmuScratchFlip, ///< transient: scratchpad word upset
    kCtrlTokenDrop,  ///< transient: control stream loses one token
    kCtrlTokenDup,   ///< transient: control stream replays one token
    kDramResponse,   ///< transient: read burst returns corrupted
    kPcuStuck,       ///< hard: PCU freezes permanently
    kPmuStuck,       ///< hard: PMU freezes permanently
    kCount,
};

const char *faultKindName(FaultKind k);

inline bool
isHardFault(FaultKind k)
{
    return k == FaultKind::kPcuStuck || k == FaultKind::kPmuStuck;
}

/** Kinds whose effects an ECC-protected memory hierarchy detects or
 *  corrects (the remainder strike unprotected datapath/control state). */
inline bool
isEccProtected(FaultKind k)
{
    return k == FaultKind::kPmuScratchFlip || k == FaultKind::kDramResponse;
}

struct FaultEvent
{
    FaultKind kind = FaultKind::kPcuRegFlip;
    Cycles cycle = 0;   ///< nominal injection cycle
    uint32_t unit = 0;  ///< PCU/PMU index, or control-channel ordinal
    uint32_t buf = 0;   ///< scratch flips: N-buffer index
    uint32_t addr = 0;  ///< scratch flips: word address
    uint32_t bits = 1;  ///< upset width (1 = ECC-correctable)
    uint32_t bit = 0;   ///< bit position (reg flips, DRAM corruption)
    uint32_t reg = 0;   ///< reg flips: pipeline register
    uint32_t lane = 0;  ///< reg flips: SIMD lane
    bool fired = false; ///< one-shot: a fired event never re-fires

    std::string describe() const;
};

/** Which fault kinds a random plan draws from. */
enum class FaultMix : uint8_t
{
    kAll,       ///< every transient kind (plus hard if requested)
    kProtected, ///< only ECC-covered kinds (scratch + DRAM)
    kDatapath,  ///< PCU reg flips and scratch flips only (never hangs)
};

/** The highest fault rate a random plan takes: one event per cycle.
 *  The command-line rate flags are bounded by it. */
inline constexpr double kMaxEventsPerMillionCycles = 1e6;

/**
 * A seeded, sorted schedule of fault events. `random()` draws the
 * event count from `eventsPerMillionCycles * horizon` (the rate at most
 * kMaxEventsPerMillionCycles), then targets each event at used units
 * of `cfg` uniformly.
 */
struct FaultPlan
{
    std::vector<FaultEvent> events; ///< sorted by nominal cycle

    static FaultPlan random(uint64_t seed, double eventsPerMillionCycles,
                            Cycles horizon, const FabricConfig &cfg,
                            FaultMix mix = FaultMix::kAll,
                            bool includeHard = false);

    bool empty() const { return events.empty(); }
};

/**
 * Delivers a FaultPlan into a fabric. The fabric polls `collectDue()`
 * at cycle boundaries and dispatches each event to the targeted
 * component; DRAM events are delivered through the MemFaultHook
 * interface instead. Events are strictly one-shot, which is what makes
 * rollback re-execution converge: a replayed region re-runs fault-free.
 */
class FaultInjector : public MemFaultHook
{
  public:
    FaultInjector(FaultPlan plan, bool dramEcc);

    /** Earliest unfired clock-triggered event cycle after `now`
     *  (kNeverCycle when none). DRAM events are excluded — they fire
     *  on memory traffic, not on the clock. */
    Cycles nextDue(Cycles now) const;

    /** Unfired clock-triggered events with cycle <= now. The caller
     *  dispatches them and must treat them as fired (this call marks
     *  them). */
    std::vector<FaultEvent> collectDue(Cycles now);

    /** MemFaultHook: consume the next due DRAM event, if any. With
     *  DRAM ECC the upset is corrected (1 bit) or detected-and-retried
     *  (2+ bits); without ECC it corrupts the delivered data. */
    BurstFault onBurstResponse(Addr lineAddr, Cycles now) override;

    const std::vector<FaultEvent> &events() const { return events_; }

    uint32_t firedCount() const;
    uint32_t firedCount(FaultKind k) const;
    /** Fired events of unprotected kinds (potential silent corruption
     *  even with ECC on). */
    uint32_t firedUnprotected() const;
    /** Physical units frozen by fired hard-fault events. */
    std::vector<FaultEvent> firedStuck() const;
    /** Earliest fired event cycle (kNeverCycle when none fired):
     *  rollback must restart at or before this point. */
    Cycles earliestFiredCycle() const;

  private:
    std::vector<FaultEvent> events_;
    bool dramEcc_;
};

} // namespace plast::resilience

#endif // PLAST_RESILIENCE_FAULT_HPP

/**
 * @file
 * The recovery orchestrator: runs an application under a fault plan
 * and drives every resilience mechanism in concert — ECC correction
 * happens inside the fabric, while this layer reacts to *detected*
 * failures (uncorrectable ECC latches, address faults, deadlocks,
 * stalled units, attempts capped out) with checkpoint rollback, full
 * restart, or degraded re-place-and-route around hard-faulted units.
 * Each run is classified against a fault-free golden execution of the
 * same inputs:
 *
 *   clean      no fault event fired at all
 *   masked     faults fired but the output is exact with no machinery
 *              engaged (the upset hit dead state)
 *   corrected  ECC / DRAM retry absorbed the upsets in place
 *   recovered  rollback, restart or re-mapping was needed; output exact
 *   detected-unrecoverable   detected, but the recovery budget ran out
 *   silent-corruption        completed with wrong output (SDC)
 *
 * It snapshots each attempt, and checks it for stalled units, where a
 * runChecked capped at the next such cycle stops. A rollback
 * re-executes from the newest checkpoint at or before the corruption
 * cycle; fault events are one-shot, so the replayed region runs
 * fault-free and re-execution converges. Checkpoints are bound to a
 * placement, so a re-mapping onto a degraded fabric restarts from
 * cycle 0 with freshly staged inputs (documented in DESIGN.md).
 */

#ifndef PLAST_RESILIENCE_RECOVERY_HPP
#define PLAST_RESILIENCE_RECOVERY_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "resilience/fault.hpp"
#include "runtime/runner.hpp"

namespace plast::resilience
{

enum class RunClass : uint8_t
{
    kClean,
    kMasked,
    kCorrected,
    kRecovered,
    kDetectedUnrecoverable,
    kSilentCorruption,
    kCompileError,
};

const char *runClassName(RunClass c);

struct ResilienceReport
{
    RunClass cls = RunClass::kClean;
    Status finalStatus;
    Cycles cycles = 0;       ///< completion cycle of the final attempt
    uint32_t rollbacks = 0;  ///< checkpoint restores
    uint32_t restarts = 0;   ///< cycle-0 restarts (no usable checkpoint)
    uint32_t remaps = 0;     ///< degraded re-place-and-route compiles
    uint32_t eventsPlanned = 0;
    uint32_t eventsFired = 0;
    uint32_t firedUnprotected = 0; ///< fired events ECC cannot see
    uint64_t eccCorrected = 0;     ///< scratchpad single-bit scrubs
    uint64_t dramCorrected = 0;
    uint64_t dramRetries = 0;
    std::string detail; ///< human-readable recovery trail

    /** A silent corruption is *explained* when at least one fired event
     *  struck state outside the ECC umbrella (or ECC was off — the
     *  caller knows). An unexplained SDC with ECC on means the
     *  detection machinery has a hole. */
    bool explainedSdc() const { return firedUnprotected > 0; }
};

class ResilientRunner
{
  public:
    /** `compiled` is the caller's frozen compile of (prog, params)
     *  (Runner::sharedMapResult()): the golden run and every attempt
     *  on the unmasked fabric adopt it, so only a degraded re-mapping
     *  compiles. `maxCycles` caps each attempt; 0 derives ~50x the
     *  golden cycle count. The checkpoint interval and the stall window
     *  always derive from the golden run (recovery.cpp). */
    ResilientRunner(pir::Program prog, ArchParams params,
                    std::shared_ptr<const compiler::MapResult> compiled,
                    Cycles maxCycles = 0);

    /** Input staging (before runGolden / run). */
    void setInputs(std::map<pir::MemId, std::vector<Word>> bufs);

    /** Cooperative cancellation: the token is armed on every runner
     *  the orchestrator builds (golden, attempts, remaps). A cancel or
     *  deadline trip aborts the recovery loop immediately — it is a
     *  caller decision, not a fault to recover from — and surfaces as
     *  kDetectedUnrecoverable with the typed status in finalStatus. */
    void setCancelToken(const CancelToken *tok) { cancel_ = tok; }

    /** Fault-free reference execution: records the golden run (its
     *  outputs, and the cycle horizon the checkpoint interval, the
     *  stall window and the attempt cap derive from). */
    Status runGolden();
    Cycles goldenCycles() const { return golden_.cycles; }

    /** Execute under `plan`, recovering as needed, and classify. */
    ResilienceReport run(const FaultPlan &plan);

    /** The record of the most recent run()'s final attempt, DRAM read
     *  back — what a serving layer returns to the tenant. Every image
     *  is empty when no attempt built a fabric. */
    const Runner::Result &lastRun() const { return last_; }

  private:
    Cycles attemptCap() const;
    void harvestCounters(ResilienceReport &rep, const Runner &runner,
                         const FaultInjector &inj) const;

    pir::Program prog_;
    ArchParams params_;
    std::shared_ptr<const compiler::MapResult> compiled_;
    Cycles maxCycles_;
    std::map<pir::MemId, std::vector<Word>> inputs_;
    const CancelToken *cancel_ = nullptr;

    Runner::Result golden_;
    bool haveGolden_ = false;
    Runner::Result last_;
};

} // namespace plast::resilience

#endif // PLAST_RESILIENCE_RECOVERY_HPP

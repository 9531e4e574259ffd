/**
 * @file
 * Post-run bottleneck analysis: aggregates the per-unit cycle-class
 * ledgers (SimUnit::ledger()) over the mapped dataflow graph and walks
 * blame along producer->consumer channels from the root controller to
 * the resource that actually gates the application — a saturated DRAM
 * channel, a conflicted scratchpad, or a compute-bound pipeline.
 */

#ifndef PLAST_RUNTIME_BOTTLENECK_HPP
#define PLAST_RUNTIME_BOTTLENECK_HPP

#include <string>
#include <vector>

#include "arch/config.hpp"
#include "sim/fabric.hpp"
#include "sim/stall.hpp"

namespace plast
{

struct BottleneckReport
{
    /** One analyzed unit: its settled ledger plus the dominant cycle
     *  class. */
    struct UnitRow
    {
        UnitRef ref;
        std::string label;    ///< "pcu03 (dot.mul)"
        CycleAcct acct;
        CycleClass dominant = CycleClass::kIdle;
    };

    Cycles cycles = 0;           ///< total simulated cycles
    std::vector<UnitRow> units;  ///< all used units, fabric order

    /** Blame chain from the root controller to the critical resource,
     *  one rendered step per hop. */
    std::vector<std::string> blamePath;
    /** One-line verdict naming the critical resource. */
    std::string critical;

    /** Human-readable report (table + blame chain + verdict). */
    std::string render() const;
};

/** Analyze a completed run. The fabric must have finished run(). */
BottleneckReport analyzeBottlenecks(const Fabric &fabric);

/**
 * Post-mortem for a hung fabric (runChecked returned kDeadlock or
 * stopped at a cap): the full bottleneck ledger plus the wait
 * structure at the point of death — which units were mid-work and for
 * how long they had made no progress, which units were frozen by a
 * hard fault, and which streams still held undelivered tokens.
 */
struct DeadlockReport
{
    BottleneckReport bottlenecks;

    struct WaitingUnit
    {
        UnitRef ref;
        std::string label;
        bool stuck = false;   ///< frozen by an injected hard fault
        Cycles stalledFor = 0; ///< cycles since last forward progress
    };
    /** Units that were started but never finished, longest-stalled
     *  first. Empty when the hang is pre-start (lost start token). */
    std::vector<WaitingUnit> waiting;

    struct HeldStream
    {
        std::string name;
        size_t tokens = 0; ///< undelivered elements at the hang point
    };
    std::vector<HeldStream> held;

    /** One-line diagnosis (stuck unit / starved consumer / lost token). */
    std::string verdict;

    std::string render() const;
};

/** Analyze a fabric whose runChecked stopped without completing. */
DeadlockReport analyzeDeadlock(const Fabric &fabric);

} // namespace plast

#endif // PLAST_RUNTIME_BOTTLENECK_HPP

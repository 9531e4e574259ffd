/**
 * @file
 * The stall-attribution taxonomy: every cycle of every unit lands in
 * exactly one CycleClass. A cycle the unit evaluates is classified by
 * that evaluation; a cycle it sleeps through under the activity
 * scheduler belongs to the class that put it to sleep. Read settled to
 * the fabric clock (SimUnit::ledger), each unit's ledger obeys
 *
 *     sum(cycles.<class>) == cycles
 *
 * and is the same, class for class, under both engines (test-enforced),
 * which is what the bottleneck report aggregates along dataflow edges.
 */

#ifndef PLAST_SIM_STALL_HPP
#define PLAST_SIM_STALL_HPP

#include <array>
#include <cstdint>

namespace plast
{

/** Why a unit did (or could do) no architectural work this cycle. */
enum class CycleClass : uint8_t
{
    kActive,             ///< architectural state moved
    kInputStarved,       ///< waiting on scalar/vector operand arrival
    kOutputBackpressure, ///< an output stream (data or done) is full
    kBankConflict,       ///< scratchpad bank conflict busy cycles
    kCreditBlocked,      ///< waiting on control tokens / credits
    kDramWait,           ///< waiting on the off-chip memory system
    kIdle,               ///< no pending work at all
    kCount,
};

inline constexpr size_t kNumCycleClasses =
    static_cast<size_t>(CycleClass::kCount);

inline const char *
cycleClassName(CycleClass c)
{
    switch (c) {
      case CycleClass::kActive:
        return "active";
      case CycleClass::kInputStarved:
        return "inputStarved";
      case CycleClass::kOutputBackpressure:
        return "outputBackpressure";
      case CycleClass::kBankConflict:
        return "bankConflict";
      case CycleClass::kCreditBlocked:
        return "creditBlocked";
      case CycleClass::kDramWait:
        return "dramWait";
      case CycleClass::kIdle:
        return "idle";
      case CycleClass::kCount:
        break;
    }
    return "?";
}

/**
 * Per-unit cycle ledger. `by` counts the unit's cycles by class,
 * evaluated or slept: architectural, so it goes on the checkpoint tape
 * and both engines agree on it. `steppedBy` counts evaluate() calls by
 * the class they classified: host work, which depends on the engine
 * (dense ticking evaluates every cycle, the activity scheduler only
 * the cycles a unit is awake) and stays off the tape.
 */
struct CycleAcct
{
    std::array<uint64_t, kNumCycleClasses> by{};
    std::array<uint64_t, kNumCycleClasses> steppedBy{};

    uint64_t of(CycleClass c) const { return by[static_cast<size_t>(c)]; }

    /** evaluate() invocations. */
    uint64_t
    stepped() const
    {
        uint64_t n = 0;
        for (uint64_t v : steppedBy)
            n += v;
        return n;
    }
};

} // namespace plast

#endif // PLAST_SIM_STALL_HPP

/**
 * @file
 * The stall-attribution taxonomy: every cycle a unit is stepped is
 * classified into exactly one CycleClass, and cycles a unit spends
 * asleep under the activity scheduler are attributed to the class that
 * put it to sleep. The per-unit invariant (test-enforced)
 *
 *     active + sum(stall reasons) + idle + asleep == totalCycles
 *
 * makes every non-active cycle of every unit explainable, which is
 * what the bottleneck report aggregates along dataflow edges.
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
 * Per-unit cycle ledger. `by` counts evaluated cycles by class;
 * `sleptBy` counts scheduler-asleep cycles, attributed to the class
 * that last blocked the unit before it slept (under dense ticking it
 * stays zero). Cycles asleep at end of run with no later evaluation
 * remain unattributed and surface as the `asleep` stat:
 * asleep = totalCycles - stepped - slept.
 */
struct CycleAcct
{
    uint64_t stepped = 0; ///< evaluate() invocations
    uint64_t slept = 0;   ///< attributed asleep cycles (== sum sleptBy)
    std::array<uint64_t, kNumCycleClasses> by{};
    std::array<uint64_t, kNumCycleClasses> sleptBy{};

    uint64_t
    active() const
    {
        return by[static_cast<size_t>(CycleClass::kActive)];
    }

    /** Evaluated + attributed-asleep cycles of one class. */
    uint64_t
    blocked(CycleClass c) const
    {
        return by[static_cast<size_t>(c)] +
               sleptBy[static_cast<size_t>(c)];
    }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, stepped);
        io(ar, slept);
        io(ar, by);
        io(ar, sleptBy);
    }
};

} // namespace plast

#endif // PLAST_SIM_STALL_HPP

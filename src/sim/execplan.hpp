/**
 * @file
 * Config-specialized execution plans: the lowering step between
 * place-and-route and simulation. A mapped PcuCfg is compiled once
 * into a PcuExecPlan — a flat array of pre-resolved stage descriptors
 * plus the liveness summary from arch/config.hpp — so the per-cycle
 * path dispatches through monomorphic per-stage kernels over
 * contiguous lane arrays instead of re-interpreting the config
 * structures lane by lane.
 *
 * The plan is semantics-preserving by construction: every kernel is an
 * instantiation of mapKernel<OP>, whose body is the same inline
 * fuApply the interpreter's fuExec wraps, and operand resolution
 * mirrors PcuSim::operandValue exactly. Parity with the oracle's
 * interpreter is enforced bit-exactly (outputs, DRAM, cycle counts,
 * checkpoint tapes) by the engine-parity suites and the differential
 * fuzzer.
 */

#ifndef PLAST_SIM_EXECPLAN_HPP
#define PLAST_SIM_EXECPLAN_HPP

#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "base/types.hpp"
#include "sim/fuexec.hpp"

namespace plast
{

/** The simulator's one engine choice (SimOptions::engine); the two
 *  simulate the same machine bit-exactly. */
enum class Engine : uint8_t
{
    kOracle,     ///< dense ticking, StageCfg re-interpreted per lane
    kProduction, ///< activity scheduling over pre-lowered ExecPlans
};

/** The names manifests and option hashes give an engine's scheduler
 *  ("dense" | "activity") and datapath ("interp" | "specialized"). */
const char *schedulerName(Engine engine);
const char *datapathName(Engine engine);

/**
 * Monomorphic lane kernel for one kMap stage: dst[l] = OP(a,b,c) over
 * `lanes` contiguous elements. Pointers may alias (dstReg can be an
 * operand register); the per-lane semantics make exact aliasing safe.
 */
using MapKernel = void (*)(const Word *a, const Word *b, const Word *c,
                           Word *dst, uint32_t lanes);

/** Per-op kernel lookup. Returns nullptr for ops left to the generic
 *  fuExec fallback (libm-backed transcendentals, which a lane loop
 *  cannot vectorize anyway — and which keep the fallback path
 *  exercised by real apps). */
MapKernel mapKernelFor(FuOp op);

/**
 * One pre-lowered pipeline stage. Everything the executor needs is
 * resolved at plan-build time: operand descriptors are copied out of
 * the StageCfg, the op's arity and reduce/accum identity are looked up
 * once, and kMap stages carry their monomorphic kernel.
 */
struct StagePlan
{
    StageKind kind = StageKind::kMap;
    FuOp op = FuOp::kNop;
    uint8_t arity = 1;      ///< operands the op consumes (1..3)
    Operand a, b, c;
    uint8_t dstReg = 0;
    bool setsMask = false;  ///< kMap: AND nonzero result into lane mask
    uint8_t reduceDist = 1; ///< kReduceStep: partner distance
    uint8_t accLevel = 0;   ///< kAccum: counter level framing the fold
    int8_t shiftAmt = 0;    ///< kShift: lane shift distance
    Word identity = 0;      ///< reduce/accum identity element
    MapKernel kernel = nullptr; ///< kMap only; null -> generic fuExec
};

/**
 * The execution plan of one PCU: flat stage descriptors plus the
 * machinery-elision sets from the liveness analysis. Plans are derived
 * state — they are rebuilt from the FabricConfig on construction and
 * never checkpointed.
 */
struct PcuExecPlan
{
    std::vector<StagePlan> stages;
    /** Registers to reset when issuing into a recycled wavefront. */
    uint32_t touchedRegs = 0;
    std::vector<uint8_t> liveVecOuts;   ///< enabled vector out ports
    std::vector<uint8_t> liveScalOuts;  ///< enabled register scalar outs
    std::vector<uint8_t> countScalOuts; ///< enabled FlatMap count outs
    bool anyCoalesce = false; ///< any live vector out coalesces
};

/** Lower one mapped PCU config into its execution plan. */
PcuExecPlan buildPcuPlan(const PcuCfg &cfg);

// --------------------------------------------------------------------
// PMU port plans
// --------------------------------------------------------------------

/**
 * Pre-lowered form of a PMU port's scalar address program.
 *
 * The builder abstractly interprets the address stages over an affine
 * domain: counters are kept symbolic, everything else (immediates,
 * scalar inputs, values computed purely from them) is *run-constant* —
 * scalar inputs are popped only when a run completes, so they cannot
 * change between accesses of one run. When every stage preserves
 * affinity (add/sub always; mul and the multiply-add ima(a, b, c) when
 * a multiplicand is run-constant; shl when the shift is; any op when
 * all operands are run-constant), the whole program collapses
 * to
 *
 *     addr = slots[base] + sum_i slots[coeff[i]] * ctr[i]   (mod 2^32)
 *
 * where `slots` is a tiny straight-line program re-evaluated once per
 * run (lazily, so checkpoint restore just invalidates it). The
 * decomposition is exact because the integer FU ops wrap modulo 2^32,
 * a ring in which affine forms distribute. Programs that use counters
 * non-affinely keep the interpreted evalScalarStages path.
 */
struct PmuAddrPlan
{
    /** One run-constant scalar computation. Sources index immediates
     *  (the value itself), scalar-in ports, or earlier slots. */
    struct Slot
    {
        enum class Src : uint8_t { kZero, kImm, kScalarIn, kSlot };
        FuOp op = FuOp::kNop;
        Src aSrc = Src::kZero, bSrc = Src::kZero, cSrc = Src::kZero;
        Word aVal = 0, bVal = 0, cVal = 0;
    };

    bool affine = false;
    std::vector<Slot> slots; ///< slot 0 is the constant 0
    uint32_t baseSlot = 0;
    /** (counter level, coefficient slot) pairs; absent level = 0. */
    std::vector<std::pair<uint8_t, uint32_t>> terms;

    /** Evaluate the run-constant slot program into `out`.
     *  `scalIn(i)` supplies the current scalar-in head values. */
    template <typename ScalFn>
    void
    evalSlots(std::vector<Word> &out, ScalFn &&scalIn) const
    {
        out.resize(slots.size());
        for (size_t i = 0; i < slots.size(); ++i) {
            const Slot &s = slots[i];
            auto src = [&](Slot::Src k, Word v) -> Word {
                switch (k) {
                  case Slot::Src::kZero: return 0;
                  case Slot::Src::kImm: return v;
                  case Slot::Src::kScalarIn: return scalIn(v);
                  case Slot::Src::kSlot: return out[v];
                }
                return 0;
            };
            out[i] = fuExec(s.op, src(s.aSrc, s.aVal), src(s.bSrc, s.bVal),
                            src(s.cSrc, s.cVal));
        }
    }
};

/**
 * The execution plan of one PMU access port. `fastAccess` gates the
 * specialized per-access path in PmuSim::portAccess: it requires the
 * plain banked address mode (no FIFO/append/gather-scatter) and an
 * affine address program. `conflictFree` additionally proves, from the
 * banking mode and geometry alone, that every access of this port
 * occupies the banks for exactly one cycle, eliding the per-access
 * conflict count. Plans are derived state — rebuilt on construction,
 * never checkpointed.
 */
struct PmuPortPlan
{
    bool fastAccess = false;
    bool conflictFree = false;
    PmuAddrPlan addr;
};

/** Lower one PMU port's address path. `banks`/`lanes` come from the
 *  architecture parameters, `scratch` from the owning PMU's config.
 *  `isWrite` distinguishes the write ports (a broadcast *write* —
 *  every lane storing to one word — keeps the interpreted path). */
PmuPortPlan buildPmuPortPlan(const PmuPortCfg &cfg, bool isWrite,
                             const ScratchCfg &scratch, uint32_t banks,
                             uint32_t lanes);

} // namespace plast

#endif // PLAST_SIM_EXECPLAN_HPP

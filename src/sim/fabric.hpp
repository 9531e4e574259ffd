/**
 * @file
 * The whole-chip simulator: instantiates PCUs, PMUs, AGs, control boxes
 * and the memory system from a FabricConfig, wires the statically
 * routed streams to unit ports, and steps everything cycle by cycle
 * until the application's root controller completes.
 */

#ifndef PLAST_SIM_FABRIC_HPP
#define PLAST_SIM_FABRIC_HPP

#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "arch/config.hpp"
#include "base/cancel.hpp"
#include "base/logging.hpp"
#include "base/stateio.hpp"
#include "base/stats.hpp"
#include "base/status.hpp"
#include "base/trace.hpp"
#include "sim/ctrlbox.hpp"
#include "sim/memsys.hpp"
#include "sim/pcu.hpp"
#include "sim/pmu.hpp"
#include "sim/scheduler.hpp"

namespace plast
{

namespace resilience
{
class FaultInjector;
}

/** Oracle only: runChecked reports a deadlock after this many cycles
 *  without progress. (The production engine detects deadlock exactly:
 *  empty active set.) */
inline constexpr uint32_t kDeadlockWindow = 50'000;

/** Simulation-loop options: the engine and tracing. A run stops at a
 *  chosen cycle through runChecked's cap, never through an option. */
struct SimOptions
{
    /** Production (activity scheduling over the specialized plans) or
     *  the oracle (dense ticking over the interpreter) that tests, the
     *  fuzzer and bench legs name explicitly; see sim/execplan.hpp. */
    Engine engine = Engine::kProduction;
    /** Event tracing and utilization sampling (off by default). */
    TraceOptions trace;
};

/**
 * A cycle-exact fabric snapshot: the full architectural state as a flat
 * word tape (see base/stateio.hpp). Valid only for a fabric built from
 * the identical FabricConfig — `cfgHash` guards against mixing
 * placements. Restoring into a fresh or a running fabric resumes
 * bit-identically from `cycle`.
 */
struct FabricCheckpoint
{
    Cycles cycle = 0;
    uint64_t cfgHash = 0;
    std::vector<uint64_t> tape;
};

/** Outcome of a non-fatal run (Fabric::runChecked). */
struct RunResult
{
    Status status;    ///< ok, or why the run stopped early
    Cycles cycles = 0; ///< completion cycle (valid when status.ok())
};

class Fabric
{
  public:
    explicit Fabric(const FabricConfig &cfg, SimOptions opts = {});
    // Units point into the fabric (the memory system, the latch).
    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** DRAM image access for the host runtime (load inputs / results). */
    DramModel &dram() { return mem_.dram(); }

    /**
     * Run until the root controller completes (plus drain) or the clock
     * reaches maxCycles. Everything that stops a run early comes back
     * as a typed Status: a deadlock (in the production engine the cycle
     * the active set empties with the root incomplete, in the oracle
     * after kDeadlockWindow cycles without progress), an access outside
     * a scratchpad buffer or the DRAM image (kAddressFault), an ECC-
     * uncorrectable latch, a cancel or deadline poll and the cap. Cycle
     * maxCycles is never simulated: both engines stop with kMaxCycles
     * at now() == maxCycles (or at once when the clock is already
     * there) in the same state, so the cap is the one way to stop at a
     * chosen cycle (to take a checkpoint there, say). A root that
     * completes on the step reaching the cap completes: the call
     * drains and reports cycles == maxCycles. analyzeDeadlock
     * (runtime/bottleneck.hpp) explains a run that stopped.
     */
    RunResult runChecked(Cycles maxCycles = 500'000'000);

    /** Step a single cycle (tests drive this directly). Both engines
     *  produce bit-identical per-cycle architectural state. */
    void step();

    // ---- resilience --------------------------------------------------
    /** Snapshot the complete architectural state. Only legal at a cycle
     *  boundary: between step() calls, or where runChecked stopped. */
    FabricCheckpoint saveCheckpoint();
    /** Restore a snapshot taken from an identically configured fabric.
     *  Rolls the clock back to cp.cycle, clears the ECC and address-
     *  fault latches and re-arms the scheduler. */
    Status restoreCheckpoint(const FabricCheckpoint &cp);
    /** Attach (or detach with nullptr) a fault injector: clock-
     *  triggered events are applied at cycle boundaries, DRAM events
     *  through the memory system's fault hook. */
    void armFaults(resilience::FaultInjector *inj);
    /**
     * Arm (or disarm with nullptr) a cooperative cancellation token.
     * runChecked polls it every 2,048 simulated cycles and returns
     * kCancelled / kDeadlineExceeded the moment the token fires — the
     * fabric state stays intact at the abort cycle, so post-mortems
     * (analyzeDeadlock / analyzeBottlenecks) and checkpoints remain
     * valid on a cancelled fabric.
     */
    void setCancelToken(const CancelToken *tok);
    /** Earliest ECC-uncorrectable corruption cycle across all PMU
     *  scratchpads (kNeverCycle when clean). */
    Cycles eccCorruptedAt() const;
    /** Streams still holding poppable elements (deadlock analysis). */
    std::vector<const StreamBase *> heldStreams() const;

    Cycles now() const { return now_; }

    /** Host-visible scalar results (argOut registers). */
    const std::deque<Word> &argOut(uint32_t slot) const;

    /** Aggregate post-run statistics. */
    void dumpStats(StatSet &out) const;

    const MemSystem &mem() const { return mem_; }
    const FabricConfig &config() const { return cfg_; }

    /** Every instantiated unit in dense order: PCUs, PMUs, AGs, boxes,
     *  each by index. This is also the scheduler's registration order
     *  and the checkpoint tape's unit order. */
    std::span<const SimUnit *const> units() const { return units_; }
    /** The unit at `ref`; null for the host and for unused sites. */
    const SimUnit *unit(const UnitRef &ref) const;
    // Typed accessors (null when the site is unused).
    const PmuSim *pmuPtr(uint32_t i) const { return pmus_.at(i).get(); }
    const AgSim *agPtr(uint32_t i) const { return ags_.at(i).get(); }

    /** The event-trace sink (null when tracing is off). */
    const TraceSink *trace() const { return trace_.get(); }
    /** Export the trace as Chrome trace-event JSON. Fatal when tracing
     *  was not enabled for this fabric. */
    void writeTrace(std::ostream &os) const;
    /** Epoch-sampled per-class utilization time-series as CSV. */
    void writeUtilizationCsv(std::ostream &os) const;

  private:
    template <class Sim, class Cfg, class Make>
    void buildUnits(std::vector<std::unique_ptr<Sim>> &owned,
                    const std::vector<Cfg> &cfgs, Make make);
    void buildChannels();
    void registerSimObjects();
    void setupTrace();
    void sampleEpoch();
    SimUnit *mutableUnit(const UnitRef &ref)
    {
        return const_cast<SimUnit *>(unit(ref));
    }
    /** Production: the next cycle to simulate — now() while work is
     *  pending, else the next stream arrival, memory event or fault
     *  event, no later than the next epoch sample; kNeverCycle when
     *  nothing ever will happen. */
    Cycles nextBusyCycle() const;
    void drainHostSinks();

    // ---- resilience internals ----------------------------------------
    uint64_t cfgHash(); ///< checkpoint guard: fnv1a64 of the config text
    void applyDueFaults();
    /** Periodic cancel-token poll; non-ok the window after the token
     *  fires (kCancelled) or its deadline passes (kDeadlineExceeded). */
    Status checkCancel();
    /** Non-ok when some PMU scratchpad latched an uncorrectable ECC
     *  error. */
    Status checkUncorrectable() const;

    /**
     * The complete architectural state, visited in a fixed order:
     * units in registration (= dense tick) order, then the memory
     * system, then every stream, then host-visible argOuts. The
     * scheduler's transient bookkeeping is deliberately excluded —
     * restoreCheckpoint() re-arms it wholesale (Scheduler::rearmAll).
     * Tracing/epoch observability state is not checkpointed either.
     */
    template <class Ar>
    void
    serializeFabricState(Ar &ar)
    {
        for (auto &u : pcus_) {
            if (u)
                u->serializeState(ar);
        }
        for (auto &u : pmus_) {
            if (u)
                u->serializeState(ar);
        }
        for (auto &u : ags_) {
            if (u)
                u->serializeState(ar);
        }
        for (auto &u : boxes_) {
            if (u)
                u->serializeState(ar);
        }
        auto agIndexOf = [this](const AgSim *ag) -> uint64_t {
            for (size_t i = 0; i < ags_.size(); ++i) {
                if (ags_[i].get() == ag)
                    return i;
            }
            panic("checkpoint: waiter references unknown AG");
        };
        auto agPtrOf = [this](uint64_t i) -> AgSim * {
            return ags_.at(i).get();
        };
        mem_.serializeState(ar, agIndexOf, agPtrOf);
        for (auto &s : scalarStreams_)
            s->serializeState(ar);
        for (auto &s : vectorStreams_)
            s->serializeState(ar);
        for (auto &s : controlStreams_)
            s->serializeState(ar);
        io(ar, argOuts_);
    }

    FabricConfig cfg_;
    SimOptions opts_;
    Scheduler sched_;
    MemSystem mem_;
    std::vector<std::unique_ptr<PcuSim>> pcus_;
    std::vector<std::unique_ptr<PmuSim>> pmus_;
    std::vector<std::unique_ptr<AgSim>> ags_;
    std::vector<std::unique_ptr<CtrlBoxSim>> boxes_;
    std::vector<SimUnit *> units_; ///< see units()

    std::vector<std::unique_ptr<ScalarStream>> scalarStreams_;
    std::vector<std::unique_ptr<VectorStream>> vectorStreams_;
    std::vector<std::unique_ptr<ControlStream>> controlStreams_;
    /** Every stream: scalar, vector, then control (registration and
     *  tape order). */
    std::vector<StreamBase *> streams_;

    /** Host argOut capture: streams whose dst is the host unit. */
    struct HostSink
    {
        uint32_t slot;
        ScalarStream *stream;
    };
    std::vector<HostSink> hostSinks_;
    std::vector<std::deque<Word>> argOuts_;

    // ---- observability -----------------------------------------------
    std::unique_ptr<TraceSink> trace_; ///< null when tracing is off
    uint16_t schedTrack_ = 0;

    /** One row of the utilization time-series: cycles spent per class
     *  (summed over units) and DRAM bus-busy cycles, within the epoch
     *  ending at `cycle`. */
    struct EpochRow
    {
        Cycles cycle;
        std::array<uint64_t, kNumCycleClasses> by;
        uint64_t dramBusy;
    };
    bool epochsOn_ = false;
    Cycles nextEpochAt_ = 0;
    std::vector<EpochRow> epochs_;
    std::array<uint64_t, kNumCycleClasses> prevClassSum_{};
    uint64_t prevDramBusy_ = 0;

    void classSums(std::array<uint64_t, kNumCycleClasses> &by,
                   uint64_t &dramBusy) const;

    // ---- resilience state --------------------------------------------
    uint64_t cfgHash_ = 0; ///< cfgHash()'s memo; 0 until first needed
    /** The run's first out-of-range access, empty when none; off the
     *  tape, so a restore clears it. */
    std::string addrFault_;
    resilience::FaultInjector *injector_ = nullptr;
    const CancelToken *cancel_ = nullptr;
    Cycles nextCancelCheckAt_ = 0;

    Cycles now_ = 0;
    /** The oracle's deadlock window runs from here: runChecked's last
     *  cycle with progress, over all calls since a restore. */
    Cycles lastProgressAt_ = 0;
    /** Did the last step() see a unit report kActive or a busy memory
     *  system? (Dense ticking and the scheduler record the same bit.) */
    bool progress_ = false;
};

} // namespace plast

#endif // PLAST_SIM_FABRIC_HPP

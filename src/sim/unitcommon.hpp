/**
 * @file
 * Machinery shared by all configurable units (PCU, PMU ports, AGs,
 * control boxes): the common SimUnit tick adapter, port bundles, token
 * gating, dynamic-bound resolution and scalar-datapath evaluation.
 */

#ifndef PLAST_SIM_UNITCOMMON_HPP
#define PLAST_SIM_UNITCOMMON_HPP

#include <string>
#include <vector>

#include "arch/config.hpp"
#include "base/stateio.hpp"
#include "sim/ports.hpp"
#include "sim/simobject.hpp"
#include "sim/stall.hpp"
#include "sim/wavefront.hpp"

namespace plast
{

/** The full IO bundle of one unit. */
struct UnitPorts
{
    std::vector<ScalarInPort> scalIn;
    std::vector<VectorInPort> vecIn;
    std::vector<ControlInPort> ctlIn;
    std::vector<ScalarOutPort> scalOut;
    std::vector<VectorOutPort> vecOut;
    std::vector<ControlOutPort> ctlOut;

    void
    size(uint32_t si, uint32_t vi, uint32_t ci, uint32_t so, uint32_t vo,
         uint32_t co)
    {
        scalIn.resize(si);
        vecIn.resize(vi);
        ctlIn.resize(ci);
        scalOut.resize(so);
        vecOut.resize(vo);
        ctlOut.resize(co);
    }
};

/**
 * Base of every configurable unit model (PCU, PMU, AG, control box):
 * one IO port bundle plus the SimObject activity adapter. A unit's
 * step() performs one cycle of its state machine and records in
 * progress_ whether any architectural state moved; under the
 * activity-driven scheduler that report doubles as the sleep decision,
 * because a unit that made no progress is, by construction, blocked on
 * a stream event (input arrival, output drain) or a memory-system
 * callback — exactly the events that re-wake it.
 */
class SimUnit : public SimObject
{
  public:
    SimUnit(UnitRef ref, std::string name)
        : ref_(ref), name_(std::move(name))
    {
    }

    UnitPorts ports;

    /** The configured unit this simulates (class and index). */
    UnitRef ref() const { return ref_; }
    /** The unit's configured name ("dot.mul"). */
    const std::string &name() const { return name_; }

    /** One cycle of the unit's state machine; must set progress_. */
    virtual void step(Cycles now) = 0;
    /** Mid-run (diagnostics and deadlock dumps). */
    virtual bool busy() const = 0;

    /**
     * The unit's cycle ledger (stall.hpp) settled to `now`: the cycles
     * it has slept since its last evaluation go to the class that put
     * it to sleep, as its next evaluation would attribute them, so
     * `sum(by) == now` under either engine. Every reader of the ledger
     * reads it through here. Updated only through evaluate(); driving
     * step() directly bypasses it.
     */
    CycleAcct
    ledger(Cycles now) const
    {
        CycleAcct a = acct_;
        a.by[static_cast<size_t>(lastClass_)] += now - settledTo_;
        return a;
    }

    /**
     * The accounting tick around step(): cycles the scheduler skipped
     * since the last evaluation are attributed to the class that put
     * the unit to sleep, then this cycle is classified — kActive on
     * progress, the step's classify() reason otherwise, kIdle when the
     * step never reached a blocking point.
     */
    Activity
    evaluate(Cycles now) final
    {
        acct_.by[static_cast<size_t>(lastClass_)] += now - settledTo_;
        settledTo_ = now + 1;
        class_ = CycleClass::kIdle;
        classSet_ = false;
        classForced_ = false;
        if (stuck_) {
            // Hard-faulted unit: architecturally frozen. Inputs pile up
            // behind it and downstream consumers starve until the
            // active set empties, which deadlock detection reports.
            progress_ = false;
        } else {
            step(now);
        }
        lastClass_ = classForced_ ? class_
                     : progress_  ? CycleClass::kActive
                                  : class_;
        ++acct_.by[static_cast<size_t>(lastClass_)];
        ++acct_.steppedBy[static_cast<size_t>(lastClass_)];
        if (progress_)
            lastProgressAt_ = now;
        return progress_ ? Activity::kActive : Activity::kBlocked;
    }

    /** Hard-fault a unit at a cycle boundary: it stops evaluating its
     *  state machine from the coming cycle on. */
    void setStuck(bool s);
    bool stuck() const { return stuck_; }

    /** Cycle of the most recent progress-making evaluation (0 before
     *  the first); deadlock post-mortems compare this against `now`. */
    Cycles lastProgressAt() const { return lastProgressAt_; }

    /**
     * Checkpoint the state shared by every unit class but the ledger:
     * the input-port pop phases and the last evaluation's progress.
     * Derived classes call this from their serializeState() before
     * their own fields.
     */
    template <class Ar>
    void
    serializeUnitBase(Ar &ar)
    {
        for (ScalarInPort &p : ports.scalIn)
            io(ar, p.popCount);
        io(ar, progress_);
        io(ar, lastProgressAt_);
    }

    /**
     * Checkpoint the ledger at cycle `now`: it goes on the tape settled
     * to `now`, so both engines write the same words, and a restored
     * ledger covers cycles [0, now). The host's step counts stay off
     * the tape.
     */
    template <class Ar>
    void
    serializeLedger(Ar &ar, Cycles now)
    {
        if constexpr (Ar::kSaving)
            acct_ = ledger(now);
        io(ar, acct_.by);
        io(ar, lastClass_);
        settledTo_ = now;
    }

  protected:
    /** Record why this cycle is blocked; the first reason reached in
     *  the step wins (it is the gating condition actually hit). Ignored
     *  if the unit ends the cycle with progress. */
    void
    classify(CycleClass c)
    {
        if (!classSet_) {
            class_ = c;
            classSet_ = true;
        }
    }

    /** Classify even though progress_ is set (bank-conflict busy
     *  cycles: the port moved, but only to burn a conflict cycle). */
    void
    classifyForce(CycleClass c)
    {
        class_ = c;
        classSet_ = true;
        classForced_ = true;
    }

    bool progress_ = false;

  private:
    UnitRef ref_;
    std::string name_;
    CycleAcct acct_;
    /** acct_.by covers cycles [0, settledTo_); the rest so far belongs
     *  to lastClass_. */
    Cycles settledTo_ = 0;
    CycleClass lastClass_ = CycleClass::kIdle;
    CycleClass class_ = CycleClass::kIdle;
    bool classSet_ = false;
    bool classForced_ = false;
    bool stuck_ = false;
    Cycles lastProgressAt_ = 0;
};

/** True when every token input listed in the control config has a token.
 *  A unit with no token inputs self-starts; `selfStarted` gates that to
 *  a single run. */
bool tokensReady(const ControlCfg &ctrl, const UnitPorts &ports,
                 bool selfStarted);

/** Consume one token from each gated control input. */
void consumeTokens(const ControlCfg &ctrl, UnitPorts &ports);

/** True when all done outputs can accept a pulse. */
bool canPushDone(const ControlCfg &ctrl, const UnitPorts &ports);

/** Pulse every done output. */
void pushDone(const ControlCfg &ctrl, UnitPorts &ports);

/** Scalar inputs referenced by a chain's dynamic bounds. */
std::vector<uint8_t> chainScalarRefs(const ChainCfg &chain);

/** Scalar / vector inputs referenced by stage operands. */
void stageRefs(const std::vector<StageCfg> &stages,
               std::vector<uint8_t> &scalars, std::vector<uint8_t> &vectors);

/** All referenced scalar inputs available? */
bool scalarsReady(const std::vector<uint8_t> &refs, const UnitPorts &ports);

/** Pop every referenced scalar input (end of run). */
void popScalars(const std::vector<uint8_t> &refs, UnitPorts &ports);

/** Resolve the per-counter iteration bounds of a chain, reading dynamic
 *  bounds from scalar inputs. */
std::vector<int64_t> resolveBounds(const ChainCfg &chain,
                                   const UnitPorts &ports);

/**
 * Evaluate a scalar datapath (PMU / AG address pipeline): runs all
 * stages on lane 0 against a counter snapshot and the scalar inputs.
 * Latency is modelled by the caller (pipeline-fill delay); this helper
 * provides the dataflow result.
 */
struct ScalarRegs
{
    std::array<Word, kMaxRegs> reg{};
};

Word evalScalarStages(const std::vector<StageCfg> &stages, uint8_t resultReg,
                      const Wavefront &wf, const UnitPorts &ports,
                      ScalarRegs &regs);

} // namespace plast

#endif // PLAST_SIM_UNITCOMMON_HPP

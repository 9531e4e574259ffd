#include "sim/fabric.hpp"

#include <algorithm>

#include "arch/cfgio.hpp"
#include "base/hash.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "resilience/fault.hpp"

namespace plast
{

namespace
{

/** Post-completion drain stops after this many quiet cycles. */
constexpr Cycles kDrainQuietWindow = 128;
/** Hard cap on post-completion drain cycles. */
constexpr Cycles kDrainMaxCycles = 100'000;
/** How often (in simulated cycles) runChecked polls the armed
 *  CancelToken for cooperative cancellation / deadline expiry. */
constexpr Cycles kCancelPollCycles = 2048;

} // namespace

Fabric::Fabric(const FabricConfig &cfg, SimOptions opts)
    : cfg_(cfg), opts_(opts), mem_(cfg.params)
{
    fatal_if(cfg_.rootBox < 0 ||
                 cfg_.rootBox >= static_cast<int>(cfg_.boxes.size()),
             "fabric config has no root controller");

    // Production-engine unit construction lowers the config into flat
    // execution plans (sim/execplan.hpp); account that host work to
    // its own phase so plan-build cost is visible next to sim time.
    const Engine engine = opts_.engine;
    ScopedSpan buildSpan(engine == Engine::kProduction ? "sim.plan-build"
                                                       : "sim.build-units");

    const ArchParams &ap = cfg_.params;
    buildUnits(pcus_, cfg_.pcus, [&](uint32_t i, const PcuCfg &c) {
        return std::make_unique<PcuSim>(ap, i, c, engine);
    });
    buildUnits(pmus_, cfg_.pmus, [&](uint32_t i, const PmuCfg &c) {
        return std::make_unique<PmuSim>(ap, i, c, engine);
    });
    buildUnits(ags_, cfg_.ags, [&](uint32_t i, const AgCfg &c) {
        return std::make_unique<AgSim>(ap, i, c, mem_, engine);
    });
    buildUnits(boxes_, cfg_.boxes, [&](uint32_t i, const ControlBoxCfg &c) {
        return std::make_unique<CtrlBoxSim>(ap, i, c);
    });
    argOuts_.resize(cfg_.hostArgOuts);

    // SECDED ECC on the scratchpads is an architecture parameter, not a
    // per-PMU choice. Out-of-range scratchpad and DRAM accesses latch
    // the run's address fault instead of panicking or growing the image.
    for (auto &u : pmus_) {
        if (u) {
            u->scratch().enableEcc(cfg_.params.pmu.ecc);
            u->scratch().bindAddressFault(&addrFault_);
        }
    }
    mem_.bindAddressFault(&addrFault_);

    buildChannels();

    // Pin host constants (argIn registers) to scalar input ports.
    for (const ConstScalar &cs : cfg_.constants) {
        SimUnit *dst = mutableUnit(cs.dst.unit);
        fatal_if(!dst, "constant bound to missing unit %s",
                 cs.dst.unit.describe().c_str());
        fatal_if(cs.dst.port >= dst->ports.scalIn.size(),
                 "constant bound to out-of-range scalar port %u on %s",
                 cs.dst.port, cs.dst.unit.describe().c_str());
        ScalarInPort &p = dst->ports.scalIn[cs.dst.port];
        fatal_if(p.isConst || p.stream,
                 "scalar input %s.%u doubly driven",
                 cs.dst.unit.describe().c_str(), cs.dst.port);
        p.isConst = true;
        p.constVal = cs.value;
    }

    if (engine == Engine::kProduction)
        registerSimObjects();

    setupTrace();
}

/** Instantiate one unit per used site of `cfgs` (null for an unused
 *  one) and append it to the dense-order unit list. */
template <class Sim, class Cfg, class Make>
void
Fabric::buildUnits(std::vector<std::unique_ptr<Sim>> &owned,
                   const std::vector<Cfg> &cfgs, Make make)
{
    for (size_t i = 0; i < cfgs.size(); ++i) {
        owned.push_back(cfgs[i].used ? make(static_cast<uint32_t>(i), cfgs[i])
                                     : nullptr);
        if (owned.back())
            units_.push_back(owned.back().get());
    }
}

/**
 * Create the trace sink and hand every emitting component its display
 * track. With tracing disabled no sink exists and every emit site
 * stays a null-pointer check.
 */
void
Fabric::setupTrace()
{
    epochsOn_ = opts_.trace.enabled && opts_.trace.epochCycles > 0;
    nextEpochAt_ = opts_.trace.epochCycles;
    if (!opts_.trace.enabled)
        return;

    trace_ = std::make_unique<TraceSink>(TraceOptions::kCapacity);
    TraceSink *t = trace_.get();
    schedTrack_ = t->addTrack("scheduler");
    sched_.setTrace(t, schedTrack_);

    for (SimUnit *u : units_) {
        const UnitRef r = u->ref();
        std::string label = strfmt("%s%02u %s", unitClassName(r.cls).c_str(),
                                   r.index, u->name().c_str());
        if (r.cls != UnitClass::kPmu) {
            u->bindTrace(t, t->addTrack(label));
            continue;
        }
        // Read/write port runs overlap in time, so each enabled port
        // gets its own track; the unit track carries nothing itself.
        const PmuCfg &pc = cfg_.pmus[r.index];
        uint16_t wr = 0, wr2 = 0, rd = 0;
        if (pc.write.enabled)
            wr = t->addTrack(label + " wr");
        if (pc.write2.enabled)
            wr2 = t->addTrack(label + " wr2");
        if (pc.read.enabled)
            rd = t->addTrack(label + " rd");
        u->bindTrace(t, pc.write.enabled ? wr : rd);
        pmus_[r.index]->bindPortTracks(wr, wr2, rd);
    }

    std::vector<uint16_t> cu_tracks;
    for (uint32_t c = 0; c < mem_.dram().numChannels(); ++c)
        cu_tracks.push_back(t->addTrack(strfmt("cu%u", c)));
    mem_.bindTrace(t, cu_tracks.empty() ? 0 : cu_tracks[0]);
    mem_.bindCuTracks(std::move(cu_tracks));

    for (StreamBase *s : streams_)
        s->bindTrace(t, t->addTrack("stream " + s->name()));
}

/** Attach everything to the scheduler: units in dense order, so
 *  order-sensitive races (two AGs submitting to one coalescing unit in
 *  the same cycle) resolve identically under both engines. */
void
Fabric::registerSimObjects()
{
    for (SimUnit *u : units_)
        sched_.addUnit(u);
    sched_.addMem(&mem_);
    for (StreamBase *s : streams_)
        sched_.addStream(s);
}

const SimUnit *
Fabric::unit(const UnitRef &ref) const
{
    switch (ref.cls) {
      case UnitClass::kPcu:
        return pcus_.at(ref.index).get();
      case UnitClass::kPmu:
        return pmus_.at(ref.index).get();
      case UnitClass::kAg:
        return ags_.at(ref.index).get();
      case UnitClass::kBox:
        return boxes_.at(ref.index).get();
      case UnitClass::kHost:
        return nullptr;
    }
    return nullptr;
}

void
Fabric::buildChannels()
{
    uint32_t idx = 0;
    for (const ChannelCfg &ch : cfg_.channels) {
        std::string name =
            strfmt("%s#%u:%s.%u->%s.%u", netKindName(ch.kind).c_str(),
                   idx++, ch.src.unit.describe().c_str(), ch.src.port,
                   ch.dst.unit.describe().c_str(), ch.dst.port);

        if (ch.dst.unit.cls == UnitClass::kHost) {
            fatal_if(ch.kind != NetKind::kScalar,
                     "host sinks must be scalar channels (%s)",
                     name.c_str());
            auto s = std::make_unique<ScalarStream>(name, ch.latency,
                                                    ch.capacity);
            SimUnit *src = mutableUnit(ch.src.unit);
            fatal_if(!src, "channel %s: missing source", name.c_str());
            fatal_if(ch.src.port >= src->ports.scalOut.size(),
                     "channel %s: bad source port", name.c_str());
            src->ports.scalOut[ch.src.port].sinks.push_back(s.get());
            s->bindProducer(src);
            s->bindHostSlot(static_cast<int32_t>(ch.dst.port));
            hostSinks_.push_back(
                {static_cast<uint32_t>(ch.dst.port), s.get()});
            fatal_if(ch.dst.port >= argOuts_.size(),
                     "channel %s: argOut slot out of range", name.c_str());
            scalarStreams_.push_back(std::move(s));
            continue;
        }

        SimUnit *srcUnit = mutableUnit(ch.src.unit);
        SimUnit *dstUnit = mutableUnit(ch.dst.unit);
        fatal_if(!srcUnit || !dstUnit, "channel %s: missing endpoint",
                 name.c_str());
        UnitPorts *src = &srcUnit->ports;
        UnitPorts *dst = &dstUnit->ports;

        switch (ch.kind) {
          case NetKind::kScalar: {
            auto s = std::make_unique<ScalarStream>(name, ch.latency,
                                                    ch.capacity);
            fatal_if(ch.src.port >= src->scalOut.size() ||
                         ch.dst.port >= dst->scalIn.size(),
                     "channel %s: bad port", name.c_str());
            fatal_if(dst->scalIn[ch.dst.port].stream ||
                         dst->scalIn[ch.dst.port].isConst,
                     "channel %s: input doubly driven", name.c_str());
            src->scalOut[ch.src.port].sinks.push_back(s.get());
            dst->scalIn[ch.dst.port].stream = s.get();
            dst->scalIn[ch.dst.port].popEvery =
                ch.dstPopEvery == 0 ? 1 : ch.dstPopEvery;
            s->bindProducer(srcUnit);
            s->bindConsumer(dstUnit);
            scalarStreams_.push_back(std::move(s));
            break;
          }
          case NetKind::kVector: {
            auto s = std::make_unique<VectorStream>(name, ch.latency,
                                                    ch.capacity);
            fatal_if(ch.src.port >= src->vecOut.size() ||
                         ch.dst.port >= dst->vecIn.size(),
                     "channel %s: bad port", name.c_str());
            fatal_if(dst->vecIn[ch.dst.port].stream,
                     "channel %s: input doubly driven", name.c_str());
            src->vecOut[ch.src.port].sinks.push_back(s.get());
            dst->vecIn[ch.dst.port].stream = s.get();
            s->bindProducer(srcUnit);
            s->bindConsumer(dstUnit);
            vectorStreams_.push_back(std::move(s));
            break;
          }
          case NetKind::kControl: {
            auto s = std::make_unique<ControlStream>(name, ch.latency,
                                                     ch.capacity);
            for (uint32_t t = 0; t < ch.initialTokens; ++t)
                s->preload(Token{});
            fatal_if(ch.src.port >= src->ctlOut.size() ||
                         ch.dst.port >= dst->ctlIn.size(),
                     "channel %s: bad port", name.c_str());
            fatal_if(dst->ctlIn[ch.dst.port].stream,
                     "channel %s: input doubly driven", name.c_str());
            src->ctlOut[ch.src.port].sinks.push_back(s.get());
            dst->ctlIn[ch.dst.port].stream = s.get();
            s->bindProducer(srcUnit);
            s->bindConsumer(dstUnit);
            controlStreams_.push_back(std::move(s));
            break;
          }
        }
    }
    auto list = [this](const auto &owned) {
        for (const auto &s : owned)
            streams_.push_back(s.get());
    };
    list(scalarStreams_);
    list(vectorStreams_);
    list(controlStreams_);
}

void
Fabric::step()
{
    // Fault events land at the cycle boundary, before any unit
    // evaluates, so an injected flip is visible to every reader of this
    // cycle under both engines (oracle/production parity).
    if (injector_)
        applyDueFaults();
    if (opts_.engine == Engine::kOracle) {
        // Tick every unit, the memory system and every stream; record
        // the progress bit the scheduler computes from the same reports.
        progress_ = false;
        for (SimUnit *u : units_)
            progress_ |= u->evaluate(now_) == Activity::kActive;
        mem_.step(now_);
        progress_ |= !mem_.quiescent();
        for (StreamBase *s : streams_)
            s->commit(now_);
        drainHostSinks();
    } else {
        sched_.runCycle(now_);
        progress_ = sched_.progressLastCycle();
        // A host sink delivered: capture argOuts this cycle, exactly
        // when the dense tick would (canPop() turns true only on
        // delivery).
        if (!sched_.deliveredHost().empty())
            drainHostSinks();
    }
    ++now_;
    if (epochsOn_ && now_ >= nextEpochAt_)
        sampleEpoch();
}

/** Capture host-bound scalars (argOut registers). */
void
Fabric::drainHostSinks()
{
    for (auto &sink : hostSinks_) {
        while (sink.stream->canPop()) {
            argOuts_[sink.slot].push_back(sink.stream->front());
            sink.stream->pop();
        }
    }
}

Cycles
Fabric::nextBusyCycle() const
{
    if (sched_.workPending())
        return now_;
    // Pending fault events bound a jump so injections land on their
    // exact cycle (one due this cycle included).
    Cycles next = sched_.nextEventCycle();
    if (injector_)
        next = std::min(next, now_ ? injector_->nextDue(now_ - 1) : now_);
    if (next == kNeverCycle)
        return next;
    // Nor does a jump pass a cycle after whose step dense ticking
    // samples an epoch, so the rows land on the same cycles.
    if (epochsOn_)
        next = std::min(next, nextEpochAt_ - 1);
    return std::max(next, now_);
}

/**
 * The one run loop. The two engines differ only in how step() advances
 * a cycle, in that production skips cycles on which nothing can happen
 * (every skipped cycle is a no-op under dense ticking), and in how a
 * deadlock is recognised: production the cycle the active set empties,
 * the oracle after kDeadlockWindow cycles without progress.
 */
RunResult
Fabric::runChecked(Cycles maxCycles)
{
    ScopedSpan span("sim.run");
    CtrlBoxSim *root = boxes_.at(cfg_.rootBox).get();
    fatal_if(!root, "root controller not instantiated");
    const bool dense = opts_.engine == Engine::kOracle;
    auto stop = [this](Status st) { return RunResult{std::move(st), now_}; };
    // The latched access happened in the step just taken.
    auto addressFault = [&] {
        return stop(Status(StatusCode::kAddressFault,
                           strfmt("address fault: %s (cycle %llu)",
                                  addrFault_.c_str(),
                                  static_cast<unsigned long long>(now_ - 1))));
    };
    auto capped = [&] {
        return stop(Status(StatusCode::kMaxCycles,
                           strfmt("fabric exceeded max cycles (%llu)",
                                  static_cast<unsigned long long>(
                                      maxCycles))));
    };

    if (Status c = checkCancel(); !c.ok())
        return stop(c);
    if (root->runsCompleted() == 0 && now_ >= maxCycles)
        return capped();
    while (root->runsCompleted() == 0) {
        if (!dense) {
            // Nothing can ever happen again: the deadlock is reported
            // the cycle it forms.
            Cycles next = nextBusyCycle();
            if (next == kNeverCycle) {
                return stop(Status(
                    StatusCode::kDeadlock,
                    strfmt("fabric deadlock: empty active set at cycle "
                           "%llu",
                           static_cast<unsigned long long>(now_))));
            }
            // A jump that reaches the cap stops there without stepping,
            // where dense ticking stops too.
            if (next >= maxCycles) {
                now_ = maxCycles;
                return capped();
            }
            now_ = next;
        }
        step();
        if (progress_)
            lastProgressAt_ = now_;
        if (!addrFault_.empty())
            return addressFault();
        if (injector_) {
            if (Status ecc = checkUncorrectable(); !ecc.ok())
                return stop(ecc);
        }
        if (Status c = checkCancel(); !c.ok())
            return stop(c);
        if (dense && now_ - lastProgressAt_ > kDeadlockWindow &&
            (!injector_ || injector_->nextDue(now_) == kNeverCycle)) {
            return stop(Status(
                StatusCode::kDeadlock,
                strfmt("fabric deadlock: no progress for %u cycles at "
                       "cycle %llu",
                       kDeadlockWindow,
                       static_cast<unsigned long long>(now_))));
        }
        // A root that completes on the step reaching the cap wins: the
        // run drains in this call.
        if (now_ >= maxCycles && root->runsCompleted() == 0)
            return capped();
    }
    Cycles done_at = now_;
    // Drain in-flight writes and host-bound scalars: step (no skipping)
    // until nothing has moved for a full window, which covers the
    // longest routed channel, so the final cycle count is the same in
    // both engines. Idle drain cycles are O(1) under production.
    Cycles quiet_since = now_;
    while (now_ - quiet_since < kDrainQuietWindow &&
           now_ - done_at < kDrainMaxCycles) {
        step();
        if (progress_)
            quiet_since = now_;
        if (!addrFault_.empty())
            return addressFault();
    }
    return {Status(), done_at};
}

const std::deque<Word> &
Fabric::argOut(uint32_t slot) const
{
    return argOuts_.at(slot);
}

// --------------------------------------------------------------------
// Resilience: fault delivery, ECC detection, checkpoint/restore
// --------------------------------------------------------------------

void
Fabric::armFaults(resilience::FaultInjector *inj)
{
    injector_ = inj;
    mem_.setFaultHook(inj);
}

void
Fabric::setCancelToken(const CancelToken *tok)
{
    cancel_ = tok;
    nextCancelCheckAt_ = 0; // poll at the next boundary
}

Status
Fabric::checkCancel()
{
    if (!cancel_ || now_ < nextCancelCheckAt_)
        return Status();
    nextCancelCheckAt_ = now_ + kCancelPollCycles;
    if (cancel_->cancelRequested()) {
        return Status(StatusCode::kCancelled,
                      strfmt("run cancelled cooperatively at cycle %llu",
                             static_cast<unsigned long long>(now_)));
    }
    // The clock read is gated on an armed deadline, so cancel-only
    // tokens cost one relaxed load per poll window.
    if (cancel_->hasDeadline() &&
        cancel_->expired(HostProfiler::instance().nowUs())) {
        return Status(
            StatusCode::kDeadlineExceeded,
            strfmt("deadline exceeded at cycle %llu (budget spent "
                   "mid-simulation)",
                   static_cast<unsigned long long>(now_)));
    }
    return Status();
}

void
Fabric::applyDueFaults()
{
    using resilience::FaultKind;
    for (const resilience::FaultEvent &e : injector_->collectDue(now_)) {
        switch (e.kind) {
          case FaultKind::kPcuRegFlip:
            if (PcuSim *u = pcus_.at(e.unit % pcus_.size()).get())
                u->injectRegFlip(e.reg, e.lane, e.bit);
            break;
          case FaultKind::kPmuScratchFlip:
            if (PmuSim *u = pmus_.at(e.unit % pmus_.size()).get())
                u->scratch().injectFault(e.buf, e.addr, e.bits, e.bit,
                                         now_);
            break;
          case FaultKind::kCtrlTokenDrop:
          case FaultKind::kCtrlTokenDup: {
            if (controlStreams_.empty())
                break;
            ControlStream *s =
                controlStreams_[e.unit % controlStreams_.size()].get();
            bool did = e.kind == FaultKind::kCtrlTokenDrop
                           ? s->injectDrop()
                           : s->injectDuplicate();
            // The mutation bypasses commit(), so route the wakes it
            // would have produced: a drop frees producer space, a dup
            // gives the consumer a poppable token.
            if (did && opts_.engine == Engine::kProduction) {
                if (s->producer())
                    sched_.wakeUnit(s->producer());
                if (s->consumer())
                    sched_.wakeUnit(s->consumer());
                sched_.streamDirty(s);
            }
            break;
          }
          case FaultKind::kPcuStuck:
            if (PcuSim *u = pcus_.at(e.unit % pcus_.size()).get())
                u->setStuck(true);
            break;
          case FaultKind::kPmuStuck:
            if (PmuSim *u = pmus_.at(e.unit % pmus_.size()).get())
                u->setStuck(true);
            break;
          default:
            break;
        }
    }
}

Cycles
Fabric::eccCorruptedAt() const
{
    Cycles at = kNeverCycle;
    for (const auto &u : pmus_) {
        if (u && u->scratch().eccUncorrectable())
            at = std::min(at, u->scratch().eccCorruptedAt());
    }
    return at;
}

Status
Fabric::checkUncorrectable() const
{
    Cycles at = eccCorruptedAt();
    if (at == kNeverCycle)
        return Status();
    return Status(StatusCode::kUncorrectable,
                  strfmt("uncorrectable ECC error in a PMU scratchpad "
                         "(corrupted at cycle %llu, detected at %llu)",
                         static_cast<unsigned long long>(at),
                         static_cast<unsigned long long>(now_)));
}

std::vector<const StreamBase *>
Fabric::heldStreams() const
{
    std::vector<const StreamBase *> held;
    for (const StreamBase *s : streams_) {
        if (!s->quiescent())
            held.push_back(s);
    }
    return held;
}

/** Checkpoints are only exchangeable between fabrics built from the
 *  identical configuration (same placement, same routes). */
uint64_t
Fabric::cfgHash()
{
    if (!cfgHash_)
        cfgHash_ = fnv1a64(configToText(cfg_));
    return cfgHash_;
}

FabricCheckpoint
Fabric::saveCheckpoint()
{
    ScopedSpan span("sim.checkpoint");
    FabricCheckpoint cp;
    cp.cycle = now_;
    cp.cfgHash = cfgHash();
    StateWriter w;
    serializeFabricState(w, now_);
    cp.tape = w.takeTape();
    return cp;
}

Status
Fabric::restoreCheckpoint(const FabricCheckpoint &cp)
{
    ScopedSpan span("sim.restore");
    if (cp.cfgHash != cfgHash()) {
        return Status(StatusCode::kInvalidArgument,
                      "checkpoint was taken from a differently "
                      "configured fabric");
    }
    StateReader r(cp.tape);
    serializeFabricState(r, cp.cycle);
    if (r.failed() || !r.exhausted()) {
        return Status(StatusCode::kInternal,
                      strfmt("checkpoint tape mismatch (%s at word %zu "
                             "of %zu)",
                             r.failed() ? "underflow" : "leftover",
                             r.position(), cp.tape.size()));
    }
    now_ = cp.cycle;
    // ECC poison is part of the scratchpad tape, but the uncorrectable
    // latch must not survive a rollback — the whole point of restoring
    // is to re-execute past the corruption.
    for (auto &u : pmus_) {
        if (u)
            u->scratch().clearEccError();
    }
    addrFault_.clear();
    lastProgressAt_ = now_;
    if (opts_.engine == Engine::kProduction)
        sched_.rearmAll();
    return Status();
}

/** Current cumulative per-class cycle sums over all units' settled
 *  ledgers, plus DRAM bus-busy cycles (the epoch sampler diffs
 *  successive calls). */
void
Fabric::classSums(std::array<uint64_t, kNumCycleClasses> &by,
                  uint64_t &dramBusy) const
{
    by.fill(0);
    for (const SimUnit *u : units_) {
        const CycleAcct a = u->ledger(now_);
        for (size_t c = 0; c < kNumCycleClasses; ++c)
            by[c] += a.by[c];
    }
    dramBusy = 0;
    for (uint32_t c = 0; c < mem_.dram().numChannels(); ++c)
        dramBusy += mem_.dram().channel(c).stats().busBusyCycles;
}

void
Fabric::sampleEpoch()
{
    ScopedSpan span("sim.epoch-sample");
    EpochRow row;
    row.cycle = now_;
    std::array<uint64_t, kNumCycleClasses> cur;
    uint64_t dram_busy;
    classSums(cur, dram_busy);
    for (size_t c = 0; c < kNumCycleClasses; ++c)
        row.by[c] = cur[c] - prevClassSum_[c];
    row.dramBusy = dram_busy - prevDramBusy_;
    prevClassSum_ = cur;
    prevDramBusy_ = dram_busy;
    epochs_.push_back(row);
    // Fast-forward may jump several periods at once; re-anchor.
    nextEpochAt_ += opts_.trace.epochCycles;
    if (nextEpochAt_ <= now_)
        nextEpochAt_ = now_ + opts_.trace.epochCycles;
}

void
Fabric::writeTrace(std::ostream &os) const
{
    fatal_if(!trace_, "writeTrace: tracing was not enabled "
                      "(SimOptions::trace.enabled)");
    trace_->writeChromeJson(os, &HostProfiler::instance());
}

void
Fabric::writeUtilizationCsv(std::ostream &os) const
{
    os << "cycle";
    for (size_t c = 0; c < kNumCycleClasses; ++c)
        os << "," << cycleClassName(static_cast<CycleClass>(c));
    os << ",dramBusy\n";
    auto row_out = [&os](const EpochRow &r) {
        os << r.cycle;
        for (size_t c = 0; c < kNumCycleClasses; ++c)
            os << "," << r.by[c];
        os << "," << r.dramBusy << "\n";
    };
    for (const EpochRow &r : epochs_)
        row_out(r);
    // Close out the partial epoch since the last boundary.
    std::array<uint64_t, kNumCycleClasses> cur;
    uint64_t dram_busy;
    classSums(cur, dram_busy);
    EpochRow tail;
    tail.cycle = now_;
    bool nonzero = false;
    for (size_t c = 0; c < kNumCycleClasses; ++c) {
        tail.by[c] = cur[c] - prevClassSum_[c];
        nonzero |= tail.by[c] != 0;
    }
    tail.dramBusy = dram_busy - prevDramBusy_;
    if (nonzero || tail.dramBusy != 0)
        row_out(tail);
}

void
Fabric::dumpStats(StatSet &out) const
{
    // Per-unit cycle-class accounting, settled to the clock, so that
    //     sum(cycles.<class>) == cycles;
    // `cycles.stepped` is the host's evaluation count.
    auto acct_stats = [&out, this](const std::string &p,
                                   const SimUnit &u) {
        const CycleAcct a = u.ledger(now_);
        for (size_t c = 0; c < kNumCycleClasses; ++c) {
            out.set(p + "cycles." +
                        cycleClassName(static_cast<CycleClass>(c)),
                    a.by[c]);
        }
        out.set(p + "cycles.stepped", a.stepped());
    };

    for (size_t i = 0; i < pcus_.size(); ++i) {
        if (!pcus_[i])
            continue;
        const auto &s = pcus_[i]->stats();
        std::string p = strfmt("pcu%02zu.", i);
        out.set(p + "runs", s.runs);
        out.set(p + "wavefronts", s.wavefronts);
        out.set(p + "laneOps", s.laneOps);
        acct_stats(p, *pcus_[i]);
    }
    for (size_t i = 0; i < pmus_.size(); ++i) {
        if (!pmus_[i])
            continue;
        const auto &s = pmus_[i]->stats();
        std::string p = strfmt("pmu%02zu.", i);
        out.set(p + "readRuns", s.readRuns);
        out.set(p + "writeRuns", s.writeRuns);
        out.set(p + "reads", s.reads);
        out.set(p + "writes", s.writes);
        out.set(p + "wordsRead", s.wordsRead);
        out.set(p + "wordsWritten", s.wordsWritten);
        acct_stats(p, *pmus_[i]);
    }
    for (size_t i = 0; i < ags_.size(); ++i) {
        if (!ags_[i])
            continue;
        const auto &s = ags_[i]->stats();
        std::string p = strfmt("ag%02zu.", i);
        out.set(p + "runs", s.runs);
        out.set(p + "denseCmds", s.denseCmds);
        out.set(p + "sparseVecs", s.sparseVecs);
        out.set(p + "wordsLoaded", s.wordsLoaded);
        out.set(p + "wordsStored", s.wordsStored);
        acct_stats(p, *ags_[i]);
    }
    for (size_t i = 0; i < boxes_.size(); ++i) {
        if (!boxes_[i])
            continue;
        const auto &s = boxes_[i]->stats();
        std::string p = strfmt("box%02zu.", i);
        out.set(p + "runs", s.runs);
        out.set(p + "iterations", s.iterations);
        acct_stats(p, *boxes_[i]);
    }

    // Per-stream traffic counters, plus per-network totals. The totals
    // are accumulated locally and written with set() so dumpStats stays
    // idempotent (a second dump into the same StatSet must not
    // double-count).
    struct NetTotals
    {
        uint64_t pushes = 0, pops = 0, fullStallCycles = 0;
    };
    std::map<std::string, NetTotals> net;
    auto stream_stats = [&out, &net](const StreamBase &s,
                                     const char *kind) {
        const auto &t = s.stats();
        std::string p = "stream." + s.name() + ".";
        out.set(p + "pushes", t.pushes);
        out.set(p + "pops", t.pops);
        out.set(p + "peakOccupancy", t.peakOccupancy);
        out.set(p + "fullStallCycles", t.fullStallCycles);
        NetTotals &n = net[kind];
        n.pushes += t.pushes;
        n.pops += t.pops;
        n.fullStallCycles += t.fullStallCycles;
    };
    for (const auto &s : scalarStreams_)
        stream_stats(*s, "scalar");
    for (const auto &s : vectorStreams_)
        stream_stats(*s, "vector");
    for (const auto &s : controlStreams_)
        stream_stats(*s, "control");
    for (const auto &[kind, n] : net) {
        std::string p = "net." + kind + ".";
        out.set(p + "pushes", n.pushes);
        out.set(p + "pops", n.pops);
        out.set(p + "fullStallCycles", n.fullStallCycles);
    }

    const auto &m = mem_.stats();
    out.set("mem.bursts", m.bursts);
    out.set("mem.coalescedLanes", m.coalescedLanes);
    out.set("mem.bytesRead", m.bytesRead);
    out.set("mem.bytesWritten", m.bytesWritten);
    for (uint32_t c = 0; c < mem_.dram().numChannels(); ++c) {
        const auto &cs = mem_.dram().channel(c).stats();
        std::string p = strfmt("dram%u.", c);
        out.set(p + "reads", cs.reads);
        out.set(p + "writes", cs.writes);
        out.set(p + "rowHits", cs.rowHits);
        out.set(p + "rowMisses", cs.rowMisses + cs.rowConflicts);
        out.set(p + "busBusyCycles", cs.busBusyCycles);
    }
    if (trace_) {
        out.set("trace.events", trace_->size());
        out.set("trace.dropped", trace_->dropped());
    }
    out.set("cycles", now_);
}

} // namespace plast

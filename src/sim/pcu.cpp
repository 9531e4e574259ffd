#include "sim/pcu.hpp"

#include <algorithm>

#include "base/logging.hpp"
#include "sim/fuexec.hpp"

namespace plast
{

namespace
{

constexpr std::array<Word, kMaxLanes> kZeroLanes{};
constexpr auto kLaneIdLanes = [] {
    std::array<Word, kMaxLanes> a{};
    for (uint32_t i = 0; i < kMaxLanes; ++i)
        a[i] = i;
    return a;
}();

} // namespace

PcuSim::PcuSim(const ArchParams &params, uint32_t index, const PcuCfg &cfg,
               Engine engine)
    : SimUnit({UnitClass::kPcu, static_cast<uint16_t>(index)}, cfg.name),
      params_(params), cfg_(cfg),
      lanes_(params.pcu.lanes), engine_(engine), plan_(buildPcuPlan(cfg))
{
    fatal_if(cfg_.stages.empty(), "PCU %u configured with no stages",
             index);
    fatal_if(cfg_.stages.size() > params.pcu.stages,
             "PCU %u: %zu stages exceed the %u physical stages", index,
             cfg_.stages.size(), params.pcu.stages);
    fatal_if(cfg_.chain.ctrs.size() > params.pcu.counters,
             "PCU %u: counter chain deeper than %u", index,
             params.pcu.counters);

    ports.size(params.pcu.scalarIns, params.pcu.vectorIns, 64,
               params.pcu.scalarOuts, params.pcu.vectorOuts, 64);

    chain_.configure(cfg_.chain, lanes_);
    pipe_.resize(cfg_.stages.size());
    wfPool_.reserve(pipe_.size());
    for (size_t s = 0; s < pipe_.size(); ++s)
        wfPool_.push_back(std::make_unique<Wavefront>());
    acc_.resize(cfg_.stages.size());
    coalesceBuf_.resize(params.pcu.vectorOuts);
    // Worst case before a coalesced emission: lanes-1 carried words
    // plus a full wavefront of incoming valid lanes.
    for (auto &buf : coalesceBuf_)
        buf.reserve(2 * lanes_);
    coalesceCount_.resize(params.pcu.vectorOuts, 0);

    stageRefs(cfg_.stages, scalarRefs_, vectorRefs_);
    for (uint8_t ref : chainScalarRefs(cfg_.chain))
        scalarRefs_.push_back(ref);
    std::sort(scalarRefs_.begin(), scalarRefs_.end());
    scalarRefs_.erase(std::unique(scalarRefs_.begin(), scalarRefs_.end()),
                      scalarRefs_.end());
}

std::unique_ptr<Wavefront>
PcuSim::grabSlot()
{
    panic_if(wfPool_.empty(), "PCU %u: wavefront pool exhausted",
             ref().index);
    std::unique_ptr<Wavefront> wf = std::move(wfPool_.back());
    wfPool_.pop_back();
    // Reset only the registers this config (or an injected fault) can
    // have dirtied: everything else provably still holds the zeros a
    // freshly constructed Wavefront would, so recycling is invisible.
    uint32_t dirty = plan_.touchedRegs | extraDirtyRegs_;
    while (dirty != 0) {
        uint32_t r = static_cast<uint32_t>(__builtin_ctz(dirty));
        dirty &= dirty - 1;
        wf->regs[r].fill(0);
    }
    return wf;
}

void
PcuSim::recycleSlot(std::unique_ptr<Wavefront> wf)
{
    wfPool_.push_back(std::move(wf));
}

void
PcuSim::step(Cycles now)
{
    progress_ = false;
    if (state_ == State::kIdle) {
        if (!tryStart(now))
            return;
    }
    advancePipeline(now);
}

bool
PcuSim::tryStart(Cycles now)
{
    if (!tokensReady(cfg_.ctrl, ports, selfStarted_)) {
        // A unit with gated token inputs is waiting on upstream
        // control; one with none (self-start, already fired) is done.
        if (!cfg_.ctrl.tokenIns.empty())
            classify(CycleClass::kCreditBlocked);
        return false;
    }
    if (!scalarsReady(scalarRefs_, ports)) {
        classify(CycleClass::kInputStarved);
        return false;
    }
    consumeTokens(cfg_.ctrl, ports);
    runStart_ = now;
    if (!cfg_.ctrl.tokenIns.empty())
        traceInstant(trace_, traceTrack_, TraceName::kTokens, now);
    selfStarted_ = true;
    chain_.reset(resolveBounds(cfg_.chain, ports));
    for (auto &buf : coalesceBuf_)
        buf.clear();
    std::fill(coalesceCount_.begin(), coalesceCount_.end(), 0);
    flushedCoalesce_ = false;
    state_ = chain_.done() && cfg_.chain.empty() == false
                 ? State::kDraining // zero-trip chain: nothing to issue
                 : State::kRunning;
    ++stats_.runs;
    progress_ = true;
    return true;
}

void
PcuSim::advancePipeline(Cycles now)
{
    const size_t S = pipe_.size();
    bool moved = false;

    // Retire from the final stage.
    if (pipe_[S - 1]) {
        if (tryRetire(*pipe_[S - 1], now)) {
            recycleSlot(std::move(pipe_[S - 1]));
            moved = true;
        } else {
            classify(CycleClass::kOutputBackpressure);
            return; // head-of-line blocked: hold everything
        }
    }

    // Bubble-compressing shift; stage s executes as a wavefront enters.
    for (size_t s = S - 1; s >= 1; --s) {
        if (!pipe_[s] && pipe_[s - 1]) {
            pipe_[s] = std::move(pipe_[s - 1]);
            applyStage(s, *pipe_[s]);
            moved = true;
        }
    }

    // Issue a new wavefront into stage 0.
    if (state_ == State::kRunning && !pipe_[0]) {
        if (chain_.done()) {
            state_ = State::kDraining;
        } else if (tryIssue(now)) {
            moved = true;
        } else {
            classify(CycleClass::kInputStarved);
        }
    }
    if (state_ == State::kRunning && chain_.done() && !pipe_[0])
        state_ = State::kDraining;

    // Run completes when the pipeline drains and coalesce buffers flush.
    if (state_ == State::kDraining) {
        bool empty = true;
        for (const auto &slot : pipe_) {
            if (slot)
                empty = false;
        }
        if (empty) {
            if (finishRun(now))
                moved = true;
            else
                classify(CycleClass::kOutputBackpressure);
        }
    }

    if (moved)
        progress_ = true;
}

bool
PcuSim::tryIssue(Cycles now)
{
    for (uint8_t ref : vectorRefs_) {
        panic_if(ref >= ports.vecIn.size(), "vector input %u out of range",
                 ref);
        if (!ports.vecIn[ref].canPop())
            return false;
    }
    std::unique_ptr<Wavefront> wf = grabSlot();
    chain_.issueInto(*wf);
    wf->issuedAt = now;
    for (uint8_t ref : vectorRefs_) {
        const Vec &v = ports.vecIn[ref].front();
        wf->vecIn[ref] = v;
        wf->mask &= v.mask;
        ports.vecIn[ref].pop();
    }
    applyStage(0, *wf);
    pipe_[0] = std::move(wf);
    ++stats_.wavefronts;
    if (state_ == State::kRunning && chain_.done())
        state_ = State::kDraining;
    return true;
}

Word
PcuSim::operandValue(const Operand &op, const Wavefront &wf,
                     uint32_t lane) const
{
    switch (op.kind) {
      case OperandKind::kNone:
        return 0;
      case OperandKind::kReg:
        return wf.regs[op.index][lane];
      case OperandKind::kCounter:
        return static_cast<Word>(wf.ctrLane(op.index, lane));
      case OperandKind::kScalarIn:
        return ports.scalIn[op.index].front();
      case OperandKind::kVectorIn:
        return wf.vecIn[op.index].lane[lane];
      case OperandKind::kImm:
        return op.imm;
      case OperandKind::kLaneId:
        return lane;
    }
    return 0;
}

const Word *
PcuSim::operandLanes(const Operand &op, const Wavefront &wf,
                     Word *scratch) const
{
    switch (op.kind) {
      case OperandKind::kNone:
        return kZeroLanes.data();
      case OperandKind::kReg:
        return wf.regs[op.index].data();
      case OperandKind::kVectorIn:
        return wf.vecIn[op.index].lane.data();
      case OperandKind::kLaneId:
        return kLaneIdLanes.data();
      case OperandKind::kImm:
        std::fill(scratch, scratch + lanes_, op.imm);
        return scratch;
      case OperandKind::kScalarIn:
        std::fill(scratch, scratch + lanes_,
                  ports.scalIn[op.index].front());
        return scratch;
      case OperandKind::kCounter: {
        if (static_cast<int8_t>(op.index) == wf.vecCtr) {
            int64_t base = wf.ctr[op.index];
            for (uint32_t l = 0; l < lanes_; ++l)
                scratch[l] = static_cast<Word>(
                    base + static_cast<int64_t>(l) * wf.vecStep);
        } else {
            std::fill(scratch, scratch + lanes_,
                      static_cast<Word>(wf.ctr[op.index]));
        }
        return scratch;
      }
    }
    return kZeroLanes.data();
}

void
PcuSim::applyStage(size_t idx, Wavefront &wf)
{
    if (engine_ == Engine::kProduction) {
        applyStagePlanned(idx, wf);
        return;
    }
    const StageCfg &st = cfg_.stages[idx];
    switch (st.kind) {
      case StageKind::kMap: {
        for (uint32_t l = 0; l < lanes_; ++l) {
            Word a = operandValue(st.a, wf, l);
            Word b = operandValue(st.b, wf, l);
            Word c = operandValue(st.c, wf, l);
            Word r = fuExec(st.op, a, b, c);
            wf.regs[st.dstReg][l] = r;
            if (st.setsMask && wf.valid(l) && r == 0)
                wf.clearValid(l);
        }
        stats_.laneOps += wf.popcountValid();
        break;
      }
      case StageKind::kReduceStep: {
        const uint32_t dist = st.reduceDist;
        const Word ident = fuOpIdentity(st.op);
        uint32_t newValid = wf.mask;
        for (uint32_t i = 0; i + dist < lanes_; i += 2 * dist) {
            Word a = wf.valid(i) ? operandValue(st.a, wf, i) : ident;
            Word b = wf.valid(i + dist) ? operandValue(st.a, wf, i + dist)
                                        : ident;
            wf.regs[st.dstReg][i] = fuExec(st.op, a, b, 0);
            if (wf.valid(i) || wf.valid(i + dist))
                newValid |= (1u << i);
            ++stats_.laneOps;
        }
        wf.mask = newValid;
        break;
      }
      case StageKind::kAccum: {
        if (wf.firstAtLevel(st.accLevel)) {
            acc_[idx].fill(fuOpIdentity(st.op));
        }
        for (uint32_t l = 0; l < lanes_; ++l) {
            if (wf.valid(l)) {
                acc_[idx][l] = fuExec(st.op, acc_[idx][l],
                                      operandValue(st.a, wf, l), 0);
                ++stats_.laneOps;
            }
            wf.regs[st.dstReg][l] = acc_[idx][l];
        }
        // The accumulated value is meaningful on every lane; make lane 0
        // observable even if this tail wavefront masked it off.
        wf.setValid(0);
        break;
      }
      case StageKind::kShift: {
        for (uint32_t l = 0; l < lanes_; ++l) {
            int src = static_cast<int>(l) - st.shiftAmt;
            wf.regs[st.dstReg][l] =
                (src >= 0 && src < static_cast<int>(lanes_))
                    ? operandValue(st.a, wf, static_cast<uint32_t>(src))
                    : 0;
        }
        stats_.laneOps += lanes_;
        break;
      }
    }
}

void
PcuSim::applyStagePlanned(size_t idx, Wavefront &wf)
{
    const StagePlan &st = plan_.stages[idx];
    switch (st.kind) {
      case StageKind::kMap: {
        const Word *a = operandLanes(st.a, wf, opScratch_[0].data());
        const Word *b = st.arity >= 2
                            ? operandLanes(st.b, wf, opScratch_[1].data())
                            : kZeroLanes.data();
        const Word *c = st.arity >= 3
                            ? operandLanes(st.c, wf, opScratch_[2].data())
                            : kZeroLanes.data();
        Word *dst = wf.regs[st.dstReg].data();
        if (st.kernel != nullptr) {
            st.kernel(a, b, c, dst, lanes_);
        } else {
            for (uint32_t l = 0; l < lanes_; ++l)
                dst[l] = fuExec(st.op, a[l], b[l], c[l]);
        }
        if (st.setsMask) {
            // Clearing an already-invalid lane is a no-op, so the
            // unconditional sweep matches the interpreter's
            // valid-guarded clearValid exactly.
            uint32_t m = wf.mask;
            for (uint32_t l = 0; l < lanes_; ++l) {
                if (dst[l] == 0)
                    m &= ~(1u << l);
            }
            wf.mask = m;
        }
        stats_.laneOps += wf.popcountValid();
        break;
      }
      case StageKind::kReduceStep: {
        const uint32_t dist = st.reduceDist;
        const Word ident = st.identity;
        const Word *src = operandLanes(st.a, wf, opScratch_[0].data());
        Word *dst = wf.regs[st.dstReg].data();
        uint32_t newValid = wf.mask;
        for (uint32_t i = 0; i + dist < lanes_; i += 2 * dist) {
            // In-place (src == dst) is safe: writes land at i, later
            // reads only at indices > i — same order the interpreter
            // observes.
            Word a = wf.valid(i) ? src[i] : ident;
            Word b = wf.valid(i + dist) ? src[i + dist] : ident;
            dst[i] = fuApply(st.op, a, b, 0);
            if (wf.valid(i) || wf.valid(i + dist))
                newValid |= (1u << i);
            ++stats_.laneOps;
        }
        wf.mask = newValid;
        break;
      }
      case StageKind::kAccum: {
        if (wf.firstAtLevel(st.accLevel))
            acc_[idx].fill(st.identity);
        const Word *src = operandLanes(st.a, wf, opScratch_[0].data());
        Word *dst = wf.regs[st.dstReg].data();
        Word *acc = acc_[idx].data();
        for (uint32_t l = 0; l < lanes_; ++l) {
            if (wf.valid(l)) {
                acc[l] = fuApply(st.op, acc[l], src[l], 0);
                ++stats_.laneOps;
            }
            dst[l] = acc[l];
        }
        wf.setValid(0);
        break;
      }
      case StageKind::kShift: {
        const Word *src = operandLanes(st.a, wf, opScratch_[0].data());
        Word *dst = wf.regs[st.dstReg].data();
        // Sequential lane order is load-bearing when src == dst and
        // shiftAmt > 0: lane l reads the value lane l-shift just wrote,
        // exactly as the interpreter does.
        for (uint32_t l = 0; l < lanes_; ++l) {
            int s = static_cast<int>(l) - st.shiftAmt;
            dst[l] = (s >= 0 && s < static_cast<int>(lanes_))
                         ? src[static_cast<uint32_t>(s)]
                         : 0;
        }
        stats_.laneOps += lanes_;
        break;
      }
    }
}

bool
PcuSim::tryRetire(const Wavefront &wf, Cycles now)
{
    // Phase 1: every triggered emission must be able to push. Only the
    // plan's live ports are scanned; disabled ports provably never
    // emit.
    for (uint8_t p : plan_.liveVecOuts) {
        const VecOutCfg &vo = cfg_.vecOuts[p];
        bool trig = vo.cond.always || wf.lastAtLevel(vo.cond.level);
        if (!trig)
            continue;
        if (vo.coalesce) {
            size_t incoming = 0;
            for (uint32_t l = 0; l < lanes_; ++l)
                incoming += wf.valid(l) ? 1 : 0;
            if (coalesceBuf_[p].size() + incoming >= lanes_ &&
                !ports.vecOut[p].canPush())
                return false;
        } else if (!ports.vecOut[p].canPush()) {
            return false;
        }
    }
    for (uint8_t p : plan_.liveScalOuts) {
        const ScalOutCfg &so = cfg_.scalOuts[p];
        bool trig = so.cond.always || wf.lastAtLevel(so.cond.level);
        if (trig && !ports.scalOut[p].canPush())
            return false;
    }

    // Phase 2: perform the emissions.
    for (uint8_t p : plan_.liveVecOuts) {
        const VecOutCfg &vo = cfg_.vecOuts[p];
        bool trig = vo.cond.always || wf.lastAtLevel(vo.cond.level);
        if (!trig)
            continue;
        if (vo.coalesce) {
            for (uint32_t l = 0; l < lanes_; ++l) {
                if (wf.valid(l)) {
                    coalesceBuf_[p].push_back(wf.regs[vo.srcReg][l]);
                    ++coalesceCount_[p];
                }
            }
            if (coalesceBuf_[p].size() >= lanes_) {
                Vec v;
                for (uint32_t l = 0; l < lanes_; ++l) {
                    v.lane[l] = coalesceBuf_[p][l];
                    v.setValid(l);
                }
                coalesceBuf_[p].erase(coalesceBuf_[p].begin(),
                                      coalesceBuf_[p].begin() + lanes_);
                ports.vecOut[p].push(v);
            }
        } else {
            Vec v;
            v.mask = wf.mask & ((lanes_ >= 32) ? 0xffffffffu
                                               : ((1u << lanes_) - 1));
            for (uint32_t l = 0; l < lanes_; ++l)
                v.lane[l] = wf.regs[vo.srcReg][l];
            ports.vecOut[p].push(v);
        }
    }
    for (uint8_t p : plan_.liveScalOuts) {
        const ScalOutCfg &so = cfg_.scalOuts[p];
        bool trig = so.cond.always || wf.lastAtLevel(so.cond.level);
        if (trig)
            ports.scalOut[p].push(wf.regs[so.srcReg][0]);
    }
    traceAsync(trace_, traceTrack_, TraceName::kWavefront, wf.issuedAt,
               now + 1, ++retiredWf_);
    return true;
}

bool
PcuSim::finishRun(Cycles now)
{
    // Flush partial coalesce buffers, then counts, then done tokens.
    if (!flushedCoalesce_) {
        if (plan_.anyCoalesce) {
            for (size_t p = 0; p < coalesceBuf_.size(); ++p) {
                if (coalesceBuf_[p].empty())
                    continue;
                if (!ports.vecOut[p].canPush())
                    return false;
            }
            for (size_t p = 0; p < coalesceBuf_.size(); ++p) {
                if (coalesceBuf_[p].empty())
                    continue;
                Vec v;
                for (uint32_t l = 0; l < coalesceBuf_[p].size(); ++l) {
                    v.lane[l] = coalesceBuf_[p][l];
                    v.setValid(l);
                }
                coalesceBuf_[p].clear();
                ports.vecOut[p].push(v);
            }
        }
        flushedCoalesce_ = true;
    }

    // FlatMap size outputs.
    for (uint8_t p : plan_.countScalOuts) {
        if (!ports.scalOut[p].canPush())
            return false;
    }
    if (!canPushDone(cfg_.ctrl, ports))
        return false;

    for (uint8_t p : plan_.countScalOuts) {
        const ScalOutCfg &so = cfg_.scalOuts[p];
        ports.scalOut[p].push(static_cast<Word>(
            coalesceCount_[static_cast<size_t>(so.countOfVecOut)]));
    }
    popScalars(scalarRefs_, ports);
    pushDone(cfg_.ctrl, ports);
    traceSpan(trace_, traceTrack_, TraceName::kRun, runStart_, now + 1);
    traceInstant(trace_, traceTrack_, TraceName::kDone, now);
    state_ = State::kIdle;
    return true;
}

bool
PcuSim::injectRegFlip(uint32_t reg, uint32_t lane, uint32_t bit)
{
    if (lanes_ == 0)
        return false;
    reg %= kMaxRegs;
    lane %= lanes_;
    bit %= 32;
    // Target the oldest occupied pipeline latch: that wavefront's
    // registers have the most downstream consumers left.
    for (size_t s = pipe_.size(); s-- > 0;)
    {
        if (!pipe_[s])
            continue;
        pipe_[s]->regs[reg][lane] ^= Word{1} << bit;
        // The flipped register may now be nonzero outside the config's
        // touched set; widen the pool reset set permanently.
        extraDirtyRegs_ |= 1u << reg;
        return true;
    }
    return false;
}

} // namespace plast

#include "sim/ctrlbox.hpp"

#include <algorithm>

#include "base/logging.hpp"

namespace plast
{

CtrlBoxSim::CtrlBoxSim(const ArchParams &params, uint32_t index,
                       const ControlBoxCfg &cfg)
    : SimUnit({UnitClass::kBox, static_cast<uint16_t>(index)}, cfg.name),
      params_(params), cfg_(cfg)
{
    // Scalar and control switches share a control block and counters;
    // port counts are generous because boxes are routing hotspots.
    ports.size(8, 0, 128, 16, 0, 128);
    chain_.configure(cfg_.chain, /*lanes=*/1);
    scalarRefs_ = chainScalarRefs(cfg_.chain);
}

void
CtrlBoxSim::step(Cycles now)
{
    progress_ = false;

    if (state_ == State::kIdle) {
        if (!tryStart(now))
            return;
        progress_ = true;
    }

    collectDones();

    if (state_ == State::kActive) {
        if (!chain_.done()) {
            if (tryIssueIteration(now))
                progress_ = true;
        } else {
            state_ = State::kFinishing;
        }
    }

    if (state_ == State::kFinishing) {
        if (completedIters_ == issued_) {
            if (canPushDone(cfg_.ctrl, ports)) {
                popScalars(scalarRefs_, ports);
                pushDone(cfg_.ctrl, ports);
                traceSpan(trace_, traceTrack_, TraceName::kRun, runStart_,
                          now + 1);
                traceInstant(trace_, traceTrack_, TraceName::kDone, now);
                state_ = State::kIdle;
                ++stats_.runs;
                progress_ = true;
            } else {
                classify(CycleClass::kOutputBackpressure);
            }
        } else {
            // Sweep issued; waiting on children's done tokens.
            classify(CycleClass::kCreditBlocked);
        }
    }
}

bool
CtrlBoxSim::tryStart(Cycles now)
{
    if (!tokensReady(cfg_.ctrl, ports, selfStarted_)) {
        if (!cfg_.ctrl.tokenIns.empty())
            classify(CycleClass::kCreditBlocked);
        return false;
    }
    if (!scalarsReady(scalarRefs_, ports)) {
        classify(CycleClass::kInputStarved);
        return false;
    }
    consumeTokens(cfg_.ctrl, ports);
    selfStarted_ = true;
    chain_.reset(resolveBounds(cfg_.chain, ports));
    issued_ = 0;
    completedIters_ = 0;
    runStart_ = now;
    if (!cfg_.ctrl.tokenIns.empty())
        traceInstant(trace_, traceTrack_, TraceName::kTokens, now);
    state_ = State::kActive;
    return true;
}

bool
CtrlBoxSim::tryIssueIteration(Cycles now)
{
    if (issued_ - completedIters_ >= cfg_.depth) {
        classify(CycleClass::kCreditBlocked);
        return false;
    }
    for (uint8_t port : cfg_.childStartOuts) {
        if (!ports.ctlOut[port].canPush()) {
            classify(CycleClass::kOutputBackpressure);
            return false;
        }
    }
    for (const auto &ex : cfg_.exports) {
        if (!ports.scalOut[ex.scalarOutPort].canPush()) {
            classify(CycleClass::kOutputBackpressure);
            return false;
        }
    }

    Wavefront wf;
    chain_.issueInto(wf);
    for (const auto &ex : cfg_.exports) {
        ports.scalOut[ex.scalarOutPort].push(
            static_cast<Word>(wf.ctr[ex.ctrIdx]));
    }
    for (uint8_t port : cfg_.childStartOuts)
        ports.ctlOut[port].push(Token{});
    traceInstant(trace_, traceTrack_, TraceName::kIteration, now);
    ++issued_;
    ++stats_.iterations;
    return true;
}

void
CtrlBoxSim::collectDones()
{
    if (cfg_.childDoneIns.empty())
        return;
    while (completedIters_ < issued_) {
        bool all = true;
        for (uint8_t port : cfg_.childDoneIns) {
            if (!ports.ctlIn[port].hasToken()) {
                all = false;
                break;
            }
        }
        if (!all)
            break;
        for (uint8_t port : cfg_.childDoneIns)
            ports.ctlIn[port].consume();
        ++completedIters_;
        progress_ = true;
    }
}

} // namespace plast

#include "sim/pmu.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "base/logging.hpp"
#include "sim/fuexec.hpp"

namespace plast
{

PmuSim::PmuSim(const ArchParams &params, uint32_t index, const PmuCfg &cfg,
               Engine engine)
    : SimUnit({UnitClass::kPmu, static_cast<uint16_t>(index)}, cfg.name),
      params_(params), cfg_(cfg), lanes_(params.pcu.lanes), engine_(engine)
{
    ports.size(params.pmu.scalarIns, params.pmu.vectorIns, 64,
               params.pmu.scalarOuts, params.pmu.vectorOuts, 64);

    scratch_.configure(cfg_.scratch, params.pmu.banks,
                       params.pmu.totalWords());

    auto init_port = [&](Port &port, const PmuPortCfg &pcfg, bool write) {
        port.cfg = &pcfg;
        port.isWrite = write;
        port.chain.configure(pcfg.chain, lanes_);
        std::vector<uint8_t> vecs;
        stageRefs(pcfg.addrStages, port.scalarRefs, vecs);
        for (uint8_t ref : chainScalarRefs(pcfg.chain))
            port.scalarRefs.push_back(ref);
        std::sort(port.scalarRefs.begin(), port.scalarRefs.end());
        port.scalarRefs.erase(
            std::unique(port.scalarRefs.begin(), port.scalarRefs.end()),
            port.scalarRefs.end());
        port.addrScratch.reserve(lanes_);
        port.activeScratch.reserve(lanes_);
        port.plan = buildPmuPortPlan(pcfg, write, cfg_.scratch,
                                     params.pmu.banks, lanes_);
        fatal_if(pcfg.enabled &&
                     pcfg.addrStages.size() > params.pmu.stages,
                 "PMU %u: %zu address stages exceed the %u physical stages",
                 index, pcfg.addrStages.size(), params.pmu.stages);
    };
    init_port(write_, cfg_.write, true);
    init_port(write2_, cfg_.write2, true);
    init_port(read_, cfg_.read, false);
}

bool
PmuSim::busy() const
{
    return (cfg_.write.enabled && write_.state != Port::State::kIdle) ||
           (cfg_.write2.enabled && write2_.state != Port::State::kIdle) ||
           (cfg_.read.enabled && read_.state != Port::State::kIdle);
}

void
PmuSim::step(Cycles now)
{
    progress_ = false;
    bool any = false;
    if (cfg_.write.enabled)
        any |= stepPort(write_, now);
    if (cfg_.write2.enabled)
        any |= stepPort(write2_, now);
    if (cfg_.read.enabled)
        any |= stepPort(read_, now);
    if (any)
        progress_ = true;
}

bool
PmuSim::stepPort(Port &port, Cycles now)
{
    const PmuPortCfg &pcfg = *port.cfg;
    switch (port.state) {
      case Port::State::kIdle: {
        if (!tokensReady(pcfg.ctrl, ports, port.selfStarted)) {
            if (!pcfg.ctrl.tokenIns.empty())
                classify(CycleClass::kCreditBlocked);
            return false;
        }
        if (!scalarsReady(port.scalarRefs, ports)) {
            classify(CycleClass::kInputStarved);
            return false;
        }
        consumeTokens(pcfg.ctrl, ports);
        port.selfStarted = true;
        port.runStart = now;
        if (!pcfg.ctrl.tokenIns.empty())
            traceInstant(trace_, port.track, TraceName::kTokens, now);
        port.chain.reset(resolveBounds(pcfg.chain, ports));
        port.runConstsValid = false; // new run: scalars may have changed
        port.fill = static_cast<uint32_t>(pcfg.addrStages.size());
        port.appendCursor = 0;
        if (pcfg.clearEvery > 0 && port.runCount % pcfg.clearEvery == 0) {
            for (uint32_t a = 0; a < scratch_.sizeWords(); ++a)
                scratch_.write(port.bufIdx, a, 0);
            // Zeroing streams one vector of lanes words per cycle.
            port.fill += (scratch_.sizeWords() + lanes_ - 1) / lanes_;
        }
        port.state =
            port.fill > 0 ? Port::State::kFilling : Port::State::kRunning;
        if (port.isWrite)
            ++stats_.writeRuns;
        else
            ++stats_.readRuns;
        return true;
      }
      case Port::State::kFilling: {
        if (--port.fill == 0)
            port.state = Port::State::kRunning;
        return true;
      }
      case Port::State::kRunning: {
        if (port.busy > 0) {
            // The port is burning a conflict cycle: the state machine
            // moves, but no architectural work happens — force the
            // classification over the progress->active rule.
            --port.busy;
            classifyForce(CycleClass::kBankConflict);
            return true;
        }
        if (port.chain.done()) {
            // Run complete: swap buffers, pop scalars, signal done.
            if (!canPushDone(pcfg.ctrl, ports)) {
                classify(CycleClass::kOutputBackpressure);
                return false;
            }
            popScalars(port.scalarRefs, ports);
            pushDone(pcfg.ctrl, ports);
            traceSpan(trace_, port.track, TraceName::kRun, port.runStart,
                      now + 1);
            traceInstant(trace_, port.track, TraceName::kDone, now);
            ++port.runCount;
            if (pcfg.swapEvery > 0 &&
                port.runCount % pcfg.swapEvery == 0)
                port.bufIdx = (port.bufIdx + 1) % scratch_.numBufs();
            port.state = Port::State::kIdle;
            return true;
        }
        if (engine_ == Engine::kProduction && port.plan.fastAccess)
            return portAccessPlanned(port);
        return portAccess(port);
      }
    }
    return false;
}

bool
PmuSim::portAccess(Port &port)
{
    const PmuPortCfg &pcfg = *port.cfg;

    // FIFO banking mode: queue semantics, no address computation.
    if (scratch_.mode() == BankingMode::kFifo) {
        if (port.isWrite) {
            if (pcfg.dataVecIn < 0 ||
                !ports.vecIn[pcfg.dataVecIn].canPop()) {
                classify(CycleClass::kInputStarved);
                return false;
            }
            port.chain.issueInto(port.wfScratch);
            scratch_.fifoPush(ports.vecIn[pcfg.dataVecIn].front());
            ports.vecIn[pcfg.dataVecIn].pop();
            ++stats_.writes;
            return true;
        }
        if (!scratch_.fifoCanPop() || pcfg.dataVecOut < 0) {
            classify(CycleClass::kInputStarved);
            return false;
        }
        if (!ports.vecOut[pcfg.dataVecOut].canPush()) {
            classify(CycleClass::kOutputBackpressure);
            return false;
        }
        port.chain.issueInto(port.wfScratch);
        ports.vecOut[pcfg.dataVecOut].push(scratch_.fifoPop());
        ++stats_.reads;
        return true;
    }

    // FlatMap append mode: pack incoming valid words at the cursor.
    if (pcfg.appendMode) {
        if (pcfg.dataVecIn < 0 || !ports.vecIn[pcfg.dataVecIn].canPop()) {
            classify(CycleClass::kInputStarved);
            return false;
        }
        port.chain.issueInto(port.wfScratch);
        const Vec &dv = ports.vecIn[pcfg.dataVecIn].front();
        for (uint32_t l = 0; l < lanes_; ++l) {
            if (dv.valid(l)) {
                scratch_.write(port.bufIdx, port.appendCursor++,
                               dv.lane[l]);
                ++stats_.wordsWritten;
            }
        }
        ports.vecIn[pcfg.dataVecIn].pop();
        ++stats_.writes;
        return true;
    }

    // Check that every input/output this access needs is ready.
    if (pcfg.addrVecIn >= 0 && !ports.vecIn[pcfg.addrVecIn].canPop()) {
        classify(CycleClass::kInputStarved);
        return false;
    }
    if (port.isWrite) {
        if (pcfg.dataVecIn < 0 || !ports.vecIn[pcfg.dataVecIn].canPop()) {
            classify(CycleClass::kInputStarved);
            return false;
        }
    } else {
        if (pcfg.dataVecOut < 0 ||
            !ports.vecOut[pcfg.dataVecOut].canPush()) {
            classify(CycleClass::kOutputBackpressure);
            return false;
        }
    }

    Wavefront &wf = port.wfScratch;
    port.chain.issueInto(wf);

    // Resolve per-lane word addresses.
    std::vector<uint32_t> &addrs = port.addrScratch;
    addrs.clear();
    uint32_t access_mask = wf.mask;
    if (pcfg.addrVecIn >= 0) {
        const Vec &av = ports.vecIn[pcfg.addrVecIn].front();
        wf.vecIn[pcfg.addrVecIn] = av;
        access_mask &= av.mask;
        for (uint32_t l = 0; l < lanes_; ++l)
            addrs.push_back(av.lane[l]);
        ports.vecIn[pcfg.addrVecIn].pop();
    } else {
        ScalarRegs regs;
        Word base = evalScalarStages(pcfg.addrStages, pcfg.addrReg, wf,
                                     ports, regs);
        if (pcfg.vecLinear) {
            for (uint32_t l = 0; l < lanes_; ++l)
                addrs.push_back(base + l);
        } else if (pcfg.broadcast) {
            // Duplication-mode broadcast: one word to every lane.
            addrs.assign(lanes_, base);
        } else {
            addrs.assign(lanes_, base);
            access_mask &= 1u; // scalar access: lane 0 only
        }
    }

    if (port.isWrite) {
        const Vec &dv = ports.vecIn[pcfg.dataVecIn].front();
        access_mask &= dv.mask;
        uint32_t buf = port.bufIdx;
        for (uint32_t l = 0; l < lanes_; ++l) {
            if (!((access_mask >> l) & 1u))
                continue;
            Word w = dv.lane[l];
            if (pcfg.accumulate) {
                Word old = scratch_.read(buf, addrs[l]);
                w = fuExec(pcfg.accumOp, old, w, 0);
            }
            scratch_.write(buf, addrs[l], w);
            ++stats_.wordsWritten;
        }
        ports.vecIn[pcfg.dataVecIn].pop();
        ++stats_.writes;
    } else {
        Vec out;
        out.mask = access_mask;
        uint32_t buf = port.bufIdx;
        for (uint32_t l = 0; l < lanes_; ++l) {
            if ((access_mask >> l) & 1u) {
                out.lane[l] = scratch_.read(buf, addrs[l]);
                ++stats_.wordsRead;
            }
        }
        ports.vecOut[pcfg.dataVecOut].push(out);
        ++stats_.reads;
    }

    // Bank conflicts occupy the port for extra cycles.
    if (pcfg.broadcast && pcfg.addrVecIn < 0) {
        port.busy = 0; // one word fanned out, conflict-free
        return true;
    }
    std::vector<uint32_t> &active = port.activeScratch;
    active.clear();
    for (uint32_t l = 0; l < lanes_; ++l) {
        if ((access_mask >> l) & 1u)
            active.push_back(addrs[l]);
    }
    port.busy = scratch_.conflictCycles(active) - 1;
    return true;
}

/**
 * Specialized access path (PmuPortPlan::fastAccess): the address comes
 * from the pre-lowered affine form instead of re-interpreting the
 * stage program, and the data moves through a raw scratchpad row when
 * the per-word semantics are provably inert. Every guard falls back to
 * the exact per-word machinery, so this path is bit-identical to
 * portAccess() for the port shapes the plan covers.
 */
bool
PmuSim::portAccessPlanned(Port &port)
{
    const PmuPortCfg &pcfg = *port.cfg;

    // Readiness checks: same order and classification as portAccess.
    if (port.isWrite) {
        if (pcfg.dataVecIn < 0 || !ports.vecIn[pcfg.dataVecIn].canPop()) {
            classify(CycleClass::kInputStarved);
            return false;
        }
    } else {
        if (pcfg.dataVecOut < 0 ||
            !ports.vecOut[pcfg.dataVecOut].canPush()) {
            classify(CycleClass::kOutputBackpressure);
            return false;
        }
    }

    // The address reads only counter values and the lane mask: no
    // wavefront, no first/last flags. Levels past the chain's depth
    // read 0, as in a fresh wavefront.
    std::array<int64_t, kMaxCtrs> ctr{};
    uint32_t access_mask = port.chain.issueCounters(ctr);

    if (!port.runConstsValid) {
        port.plan.addr.evalSlots(port.runConsts, [&](Word idx) {
            return ports.scalIn[idx].front();
        });
        port.runConstsValid = true;
    }
    Word base = port.runConsts[port.plan.addr.baseSlot];
    for (const auto &[level, slot] : port.plan.addr.terms)
        base += port.runConsts[slot] * static_cast<Word>(ctr[level]);

    const uint32_t buf = port.bufIdx;

    if (port.isWrite) {
        const Vec &dv = ports.vecIn[pcfg.dataVecIn].front();
        access_mask &= dv.mask;
        if (pcfg.vecLinear) {
            if (Word *row = scratch_.rawRowMut(buf, base, lanes_)) {
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if (!((access_mask >> l) & 1u))
                        continue;
                    Word w = dv.lane[l];
                    if (pcfg.accumulate)
                        w = fuExec(pcfg.accumOp, row[l], w, 0);
                    row[l] = w;
                }
            } else {
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if (!((access_mask >> l) & 1u))
                        continue;
                    Word w = dv.lane[l];
                    if (pcfg.accumulate)
                        w = fuExec(pcfg.accumOp,
                                   scratch_.read(buf, base + l), w, 0);
                    scratch_.write(buf, base + l, w);
                }
            }
            stats_.wordsWritten +=
                static_cast<uint32_t>(std::popcount(access_mask));
        } else {
            access_mask &= 1u; // scalar access: lane 0 only
            if (access_mask) {
                Word w = dv.lane[0];
                if (Word *row = scratch_.rawRowMut(buf, base, 1)) {
                    if (pcfg.accumulate)
                        w = fuExec(pcfg.accumOp, row[0], w, 0);
                    row[0] = w;
                } else {
                    if (pcfg.accumulate)
                        w = fuExec(pcfg.accumOp,
                                   scratch_.read(buf, base), w, 0);
                    scratch_.write(buf, base, w);
                }
                ++stats_.wordsWritten;
            }
        }
        ports.vecIn[pcfg.dataVecIn].pop();
        ++stats_.writes;
    } else {
        Vec out;
        if (pcfg.vecLinear) {
            out.mask = access_mask;
            if (const Word *row = scratch_.rawRow(buf, base, lanes_)) {
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if ((access_mask >> l) & 1u)
                        out.lane[l] = row[l];
                }
            } else {
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if ((access_mask >> l) & 1u)
                        out.lane[l] = scratch_.read(buf, base + l);
                }
            }
        } else if (pcfg.broadcast) {
            out.mask = access_mask;
            if (const Word *row = scratch_.rawRow(buf, base, 1)) {
                const Word w = row[0];
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if ((access_mask >> l) & 1u)
                        out.lane[l] = w;
                }
            } else {
                for (uint32_t l = 0; l < lanes_; ++l) {
                    if ((access_mask >> l) & 1u)
                        out.lane[l] = scratch_.read(buf, base);
                }
            }
        } else {
            access_mask &= 1u; // scalar access: lane 0 only
            out.mask = access_mask;
            if (access_mask) {
                if (const Word *row = scratch_.rawRow(buf, base, 1))
                    out.lane[0] = row[0];
                else
                    out.lane[0] = scratch_.read(buf, base);
            }
        }
        stats_.wordsRead +=
            static_cast<uint32_t>(std::popcount(access_mask));
        ports.vecOut[pcfg.dataVecOut].push(out);
        ++stats_.reads;
    }

    if (port.plan.conflictFree) {
        port.busy = 0;
        return true;
    }
    // Unprovable geometry (e.g. fewer banks than lanes): rebuild the
    // active address list and count conflicts exactly as portAccess.
    std::vector<uint32_t> &active = port.activeScratch;
    active.clear();
    for (uint32_t l = 0; l < lanes_; ++l) {
        if ((access_mask >> l) & 1u)
            active.push_back(pcfg.vecLinear ? base + l : base);
    }
    port.busy = scratch_.conflictCycles(active) - 1;
    return true;
}

} // namespace plast

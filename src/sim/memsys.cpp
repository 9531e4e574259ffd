#include "sim/memsys.hpp"

#include <algorithm>

#include "base/logging.hpp"
#include "sim/scheduler.hpp"

namespace plast
{

// ====================================================================
// AgSim
// ====================================================================

AgSim::AgSim(const ArchParams &params, uint32_t index, const AgCfg &cfg,
             MemSystem &mem, Engine engine)
    : SimUnit({UnitClass::kAg, static_cast<uint16_t>(index)}, cfg.name),
      params_(params), cfg_(cfg), lanes_(params.pcu.lanes), mem_(mem),
      engine_(engine)
{
    // AG datapaths mirror the PMU scalar datapath (§3.4).
    ports.size(params.pmu.scalarIns, 2, 32, 1, 1, 32);
    chain_.configure(cfg_.chain, lanes_);
    trialChain_.configure(cfg_.chain, lanes_);
    std::vector<uint8_t> vecs;
    stageRefs(cfg_.addrStages, scalarRefs_, vecs);
    for (uint8_t ref : chainScalarRefs(cfg_.chain))
        scalarRefs_.push_back(ref);
    std::sort(scalarRefs_.begin(), scalarRefs_.end());
    scalarRefs_.erase(std::unique(scalarRefs_.begin(), scalarRefs_.end()),
                      scalarRefs_.end());
}

void
AgSim::step(Cycles now)
{
    progress_ = false;
    drainResponses(now);

    switch (state_) {
      case State::kIdle:
        if (tryStart(now))
            progress_ = true;
        return;
      case State::kRunning: {
        if (fill_ > 0) {
            --fill_;
            progress_ = true;
            return;
        }
        if (chain_.done()) {
            state_ = State::kDrainOut;
            progress_ = true;
            return;
        }
        bool issued = (cfg_.mode == AgMode::kDenseLoad ||
                       cfg_.mode == AgMode::kDenseStore)
                          ? issueDense(now)
                          : issueSparse(now);
        if (issued)
            progress_ = true;
        return;
      }
      case State::kDrainOut: {
        if (sparsePendingMask_ != 0) {
            if (retrySparse())
                progress_ = true;
            else
                classify(CycleClass::kDramWait);
            return;
        }
        if (dense_.empty() && sparse_.empty() && outstandingWrites_ == 0) {
            if (finishRun(now))
                progress_ = true;
            else
                classify(CycleClass::kOutputBackpressure);
        } else {
            classify(CycleClass::kDramWait);
        }
        return;
      }
    }
}

bool
AgSim::tryStart(Cycles now)
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
    trialValid_ = false; // new run: scalars and chain position changed
    fill_ = static_cast<uint32_t>(cfg_.addrStages.size());
    state_ = State::kRunning;
    runStart_ = now;
    if (!cfg_.ctrl.tokenIns.empty())
        traceInstant(trace_, traceTrack_, TraceName::kTokens, now);
    ++stats_.runs;
    return true;
}

bool
AgSim::issueDense(Cycles now)
{
    const bool write = (cfg_.mode == AgMode::kDenseStore);
    if (write &&
        (cfg_.dataVecIn < 0 || !ports.vecIn[cfg_.dataVecIn].canPop())) {
        classify(CycleClass::kInputStarved);
        return false;
    }

    // Compute the command address from a copy of the chain; commit the
    // advance only if the coalescing unit accepts the command. The
    // production engine memoizes the trial: between a rejection and
    // the retry nothing the address depends on (chain position,
    // run-constant scalars) can change, so re-submits skip the stage
    // interpretation. The oracle re-evaluates every attempt.
    if (engine_ != Engine::kProduction || !trialValid_) {
        trialChain_.copyRunStateFrom(chain_);
        Wavefront &wf = wfScratch_;
        trialChain_.issueInto(wf);
        ScalarRegs regs;
        Word word_idx = evalScalarStages(cfg_.addrStages, cfg_.addrReg,
                                         wf, ports, regs);
        trialByteAddr_ = cfg_.base + static_cast<Addr>(word_idx) * 4;
        trialValid_ = true;
    }
    const Addr byte_addr = trialByteAddr_;

    uint64_t id = nextCmdId_;
    if (write) {
        const Vec &dv = ports.vecIn[cfg_.dataVecIn].front();
        uint32_t count = 0;
        std::array<Word, kMaxLanes> buf{};
        for (uint32_t l = 0; l < lanes_; ++l) {
            if (dv.valid(l))
                buf[count++] = dv.lane[l];
        }
        if (count == 0)
            count = 1; // degenerate all-masked store keeps the flow going
        if (!mem_.submitDense(cfg_.channel, this, id, byte_addr, count,
                              true, buf.data())) {
            classify(CycleClass::kDramWait);
            return false;
        }
        ports.vecIn[cfg_.dataVecIn].pop();
        outstandingWrites_ += count;
        stats_.wordsStored += count;
    } else {
        if (!mem_.submitDense(cfg_.channel, this, id, byte_addr,
                              cfg_.wordsPerCmd, false, nullptr)) {
            classify(CycleClass::kDramWait);
            return false;
        }
        DenseCmd &cmd = dense_.push_slot();
        cmd.id = id;
        cmd.words = cfg_.wordsPerCmd;
        cmd.received = 0;
        cmd.pushed = 0;
        cmd.issuedAt = now;
        cmd.data.assign(cfg_.wordsPerCmd, 0);
        stats_.wordsLoaded += cfg_.wordsPerCmd;
    }
    ++nextCmdId_;
    ++stats_.denseCmds;
    chain_.copyRunStateFrom(trialChain_);
    trialValid_ = false; // chain advanced: next command, new address
    return true;
}

bool
AgSim::issueSparse(Cycles now)
{
    if (sparsePendingMask_ != 0) {
        if (retrySparse())
            return true;
        classify(CycleClass::kDramWait);
        return false;
    }

    const bool write = (cfg_.mode == AgMode::kSparseStore);
    if (cfg_.addrVecIn < 0 || !ports.vecIn[cfg_.addrVecIn].canPop()) {
        classify(CycleClass::kInputStarved);
        return false;
    }
    if (write &&
        (cfg_.dataVecIn < 0 || !ports.vecIn[cfg_.dataVecIn].canPop())) {
        classify(CycleClass::kInputStarved);
        return false;
    }

    trialChain_.copyRunStateFrom(chain_);
    Wavefront &wf = wfScratch_;
    trialChain_.issueInto(wf);

    const Vec &av = ports.vecIn[cfg_.addrVecIn].front();
    uint32_t mask = wf.mask & av.mask;
    Vec byte_addrs;
    byte_addrs.mask = mask;
    for (uint32_t l = 0; l < lanes_; ++l) {
        byte_addrs.lane[l] = static_cast<Word>(
            cfg_.base + static_cast<Addr>(av.lane[l]) * 4);
    }

    uint64_t id = nextCmdId_++;
    ++stats_.sparseVecs;
    chain_.copyRunStateFrom(trialChain_);

    if (write) {
        const Vec &dv = ports.vecIn[cfg_.dataVecIn].front();
        Vec payload = dv;
        payload.mask = mask & dv.mask;
        byte_addrs.mask = payload.mask;
        ports.vecIn[cfg_.addrVecIn].pop();
        ports.vecIn[cfg_.dataVecIn].pop();
        outstandingWrites_ += __builtin_popcount(payload.mask);
        stats_.wordsStored += __builtin_popcount(payload.mask);
        sparsePendingWrite_ = true;
        sparsePendingAddrs_ = byte_addrs;
        sparsePendingData_ = payload;
        sparsePendingMask_ = payload.mask;
        sparsePendingId_ = id;
    } else {
        ports.vecIn[cfg_.addrVecIn].pop();
        SparseCmd cmd;
        cmd.id = id;
        cmd.mask = mask;
        cmd.remaining = __builtin_popcount(mask);
        cmd.data.mask = mask;
        cmd.issuedAt = now;
        sparse_.push_back(cmd);
        stats_.wordsLoaded += cmd.remaining;
        sparsePendingWrite_ = false;
        sparsePendingAddrs_ = byte_addrs;
        sparsePendingMask_ = mask;
        sparsePendingId_ = id;
    }
    return retrySparse() || true;
}

bool
AgSim::retrySparse()
{
    Vec attempt = sparsePendingAddrs_;
    attempt.mask = sparsePendingMask_;
    Vec payload = sparsePendingData_;
    payload.mask = sparsePendingMask_;
    uint32_t accepted = mem_.submitSparse(
        cfg_.channel, this, sparsePendingId_, attempt, lanes_,
        sparsePendingWrite_, sparsePendingWrite_ ? &payload : nullptr);
    sparsePendingMask_ &= ~accepted;
    return accepted != 0;
}

void
AgSim::drainResponses(Cycles now)
{
    if (cfg_.mode == AgMode::kDenseLoad && !dense_.empty()) {
        DenseCmd &front = dense_.front();
        if (front.received == front.words && cfg_.dataVecOut >= 0) {
            if (!ports.vecOut[cfg_.dataVecOut].canPush()) {
                classify(CycleClass::kOutputBackpressure);
                return;
            }
            // Emit the next vector of this command (one per cycle).
            static_assert(kMaxLanes <= 32, "mask width");
            uint32_t pushed = front.pushed;
            uint32_t n = std::min(lanes_, front.words - pushed);
            Vec v;
            for (uint32_t l = 0; l < n; ++l) {
                v.lane[l] = front.data[pushed + l];
                v.setValid(l);
            }
            ports.vecOut[cfg_.dataVecOut].push(v);
            front.pushed += n;
            progress_ = true;
            if (front.pushed >= front.words) {
                traceAsync(trace_, traceTrack_, TraceName::kDramCmd,
                           front.issuedAt, now + 1, front.id);
                dense_.pop_front();
            }
        }
    } else if (cfg_.mode == AgMode::kSparseLoad && !sparse_.empty()) {
        SparseCmd &front = sparse_.front();
        if (front.remaining == 0 && cfg_.dataVecOut >= 0) {
            if (!ports.vecOut[cfg_.dataVecOut].canPush()) {
                classify(CycleClass::kOutputBackpressure);
                return;
            }
            ports.vecOut[cfg_.dataVecOut].push(front.data);
            traceAsync(trace_, traceTrack_, TraceName::kDramCmd,
                       front.issuedAt, now + 1, front.id);
            sparse_.pop_front();
            progress_ = true;
        }
    }
}

bool
AgSim::finishRun(Cycles now)
{
    if (!canPushDone(cfg_.ctrl, ports))
        return false;
    popScalars(scalarRefs_, ports);
    pushDone(cfg_.ctrl, ports);
    traceSpan(trace_, traceTrack_, TraceName::kRun, runStart_, now + 1);
    traceInstant(trace_, traceTrack_, TraceName::kDone, now);
    state_ = State::kIdle;
    return true;
}

namespace
{

/** The in-flight command `cmdId` of `cmds` (ids are consecutive from
 *  the front). */
template <class Cmd>
Cmd &
commandFor(Ring<Cmd> &cmds, uint64_t cmdId, const char *what, uint32_t ag)
{
    const uint64_t at = cmds.empty() ? 0 : cmdId - cmds.front().id;
    panic_if(at >= cmds.size() || cmds[at].id != cmdId,
             "AG %u: %s for unknown command %llu", ag, what,
             static_cast<unsigned long long>(cmdId));
    return cmds[at];
}

} // namespace

void
AgSim::deliverWords(uint64_t cmdId, uint32_t wordOffset, const Word *data,
                    uint32_t count)
{
    DenseCmd &cmd = commandFor(dense_, cmdId, "deliverWords", ref().index);
    panic_if(wordOffset + count > cmd.words,
             "AG %u: burst overflows command", ref().index);
    std::copy(data, data + count, cmd.data.begin() + wordOffset);
    cmd.received += count;
    if (&cmd == &dense_.front() && cmd.received == cmd.words)
        requestWake();
}

void
AgSim::deliverLane(uint64_t cmdId, uint32_t lane, Word data)
{
    SparseCmd &cmd = commandFor(sparse_, cmdId, "deliverLane", ref().index);
    cmd.data.lane[lane] = data;
    panic_if(cmd.remaining == 0, "AG %u: extra lane delivery", ref().index);
    --cmd.remaining;
    if (&cmd == &sparse_.front() && cmd.remaining == 0)
        requestWake();
}

void
AgSim::ackWrite(uint64_t cmdId, uint32_t count)
{
    (void)cmdId;
    panic_if(outstandingWrites_ < count, "AG %u: spurious write ack",
             ref().index);
    outstandingWrites_ -= count;
    if (outstandingWrites_ == 0)
        requestWake();
}

// ====================================================================
// MemSystem
// ====================================================================

MemSystem::MemSystem(const ArchParams &params)
    : params_(params), dram_(params.dram), cus_(params.dram.channels)
{
}

uint32_t
MemSystem::allocBurst(uint32_t cu, Addr lineAddr, bool write)
{
    uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<uint32_t>(slab_.size());
        slab_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Burst &b = slab_[slot];
    b.lineAddr = lineAddr;
    b.id = nextBurst_++;
    b.write = write;
    b.issued = false;
    b.live = true;
    b.cu = cu;
    b.issuedAt = 0;
    b.retries = 0;
    b.notBefore = 0;
    return slot;
}

void
MemSystem::freeBurst(uint32_t slot)
{
    Burst &b = slab_[slot];
    b.live = false;
    b.waiters.clear();
    freeSlots_.push_back(slot);
    if (freeSlots_.size() == slab_.size()) {
        // Drained: give the memory back (a design sweep keeps many
        // finished fabrics alive).
        std::vector<Burst>().swap(slab_);
        std::vector<uint32_t>().swap(freeSlots_);
    }
}

void
MemSystem::addWaiter(CuState &c, AgSim *ag, uint32_t bursts)
{
    // Dense ticking re-evaluates every AG each cycle anyway.
    if (!sched())
        return;
    auto it = std::lower_bound(
        c.waiting.begin(), c.waiting.end(), ag->ref().index,
        [](const DenseWaiter &w, uint16_t i) { return w.ag->ref().index < i; });
    if (it != c.waiting.end() && it->ag == ag)
        it->bursts = bursts;
    else
        c.waiting.insert(it, DenseWaiter{ag, bursts});
}

void
MemSystem::park(CuState &c, AgSim *ag)
{
    if (!sched())
        return;
    if (std::find(c.parked.begin(), c.parked.end(), ag) == c.parked.end())
        c.parked.push_back(ag);
}

AgSim *
MemSystem::nextWaiter(CuState &c)
{
    // Next cycle the port is free and `outstanding` holds until the
    // first acceptance: dense ticking would retry every waiter in index
    // order and admit the first whose bursts fit.
    for (auto it = c.waiting.begin(); it != c.waiting.end();) {
        if (it->ag->stuck())
            it = c.waiting.erase(it); // never submits again
        else if (c.outstanding + it->bursts <=
                 params_.coalescerMaxOutstanding)
            return it->ag;
        else
            ++it;
    }
    return nullptr;
}

void
MemSystem::unitStuck()
{
    for (CuState &c : cus_) {
        if (AgSim *ag = nextWaiter(c))
            sched()->wakeNow(ag);
    }
}

bool
MemSystem::submitDense(uint32_t cu, AgSim *ag, uint64_t cmdId,
                       Addr byteAddr, uint32_t words, bool write,
                       const Word *data)
{
    // A submit means the memory system has work this cycle.
    if (sched())
        sched()->memWork();
    CuState &c = cus_.at(cu);
    const Addr first_line = byteAddr / kBurstBytes;
    const Addr last_line = (byteAddr + words * 4 - 1) / kBurstBytes;
    const uint32_t n_bursts = static_cast<uint32_t>(last_line - first_line
                                                    + 1);
    panic_if(n_bursts > params_.coalescerMaxOutstanding,
             "dense command of %u bursts can never satisfy the "
             "outstanding budget (%u)",
             n_bursts, params_.coalescerMaxOutstanding);
    if (c.acceptedThisCycle ||
        c.outstanding + n_bursts > params_.coalescerMaxOutstanding) {
        addWaiter(c, ag, n_bursts);
        return false;
    }
    if (pastImage(write ? "dense store" : "dense load", byteAddr,
                  byteAddr + static_cast<Addr>(words) * 4))
        return false;
    if (!c.waiting.empty()) {
        auto it = std::find_if(
            c.waiting.begin(), c.waiting.end(),
            [ag](const DenseWaiter &w) { return w.ag == ag; });
        if (it != c.waiting.end())
            c.waiting.erase(it);
    }
    c.acceptedThisCycle = true;
    c.outstanding += n_bursts;
    ++stats_.denseCmds;

    if (write) {
        for (uint32_t w = 0; w < words; ++w)
            dram_.writeWord(byteAddr + static_cast<Addr>(w) * 4, data[w]);
        stats_.bytesWritten += static_cast<uint64_t>(words) * 4;
    } else {
        stats_.bytesRead += static_cast<uint64_t>(words) * 4;
    }

    for (Addr line = first_line; line <= last_line; ++line) {
        Addr line_byte = line * kBurstBytes;
        Addr startB = std::max<Addr>(line_byte, byteAddr);
        Addr endB = std::min<Addr>(line_byte + kBurstBytes,
                                   byteAddr + static_cast<Addr>(words) * 4);
        uint32_t slot = allocBurst(cu, line_byte, write);
        Waiter w{};
        w.ag = ag;
        w.cmdId = cmdId;
        w.sparse = false;
        w.wordOffset = static_cast<uint32_t>((startB - byteAddr) / 4);
        w.wordCount = static_cast<uint32_t>((endB - startB) / 4);
        w.lineOffset = startB;
        slab_[slot].waiters.push_back(w);
        c.issueQueue.push_back(slot);
    }
    return true;
}

bool
MemSystem::pastImage(const char *what, Addr byteAddr, Addr end)
{
    if (end <= dram_.sizeBytes())
        return false;
    latchAddressFault(addrFault_,
                      strfmt("%s at byte %llu past the DRAM image (%llu "
                             "bytes)",
                             what, static_cast<unsigned long long>(byteAddr),
                             static_cast<unsigned long long>(
                                 dram_.sizeBytes())));
    return true;
}

uint32_t
MemSystem::submitSparse(uint32_t cu, AgSim *ag, uint64_t cmdId,
                        const Vec &addrs, uint32_t lanes, bool write,
                        const Vec *data)
{
    if (sched())
        sched()->memWork();
    CuState &c = cus_.at(cu);
    if (c.acceptedThisCycle) {
        ag->requestWake();
        return 0;
    }

    uint32_t accepted = 0;
    for (uint32_t l = 0; l < lanes; ++l) {
        if (!addrs.valid(l))
            continue;
        Addr byte_addr = addrs.lane[l];
        Addr line = (byte_addr / kBurstBytes) * kBurstBytes;

        // Merge with a pending burst when possible.
        auto it = c.mergeTable.find(line);
        bool mergeable = false;
        if (it != c.mergeTable.end()) {
            const Burst &b = slab_[it->second];
            mergeable = b.live && b.write == write && !(write && b.issued);
        }
        if (!mergeable &&
            (c.mergeTable.size() >= params_.coalescerCacheLines ||
             c.outstanding >= params_.coalescerMaxOutstanding)) {
            continue; // this lane waits for a free cache entry
        }

        if (pastImage(write ? "scatter" : "gather", byte_addr,
                      line + kBurstBytes))
            continue;
        if (write) {
            dram_.writeWord(byte_addr, data->lane[l]);
            stats_.bytesWritten += 4;
        } else {
            stats_.bytesRead += 4;
        }

        uint32_t slot;
        if (mergeable) {
            slot = it->second;
            ++stats_.coalescedLanes;
        } else {
            slot = allocBurst(cu, line, write);
            c.mergeTable[line] = slot;
            c.issueQueue.push_back(slot);
            ++c.outstanding;
        }
        Waiter w{};
        w.ag = ag;
        w.cmdId = cmdId;
        w.sparse = true;
        w.lane = l;
        w.byteAddr = byte_addr;
        w.wordCount = 1;
        slab_[slot].waiters.push_back(w);
        accepted |= (1u << l);
    }
    if (accepted) {
        c.acceptedThisCycle = true;
        ++stats_.sparseCmds;
    } else {
        park(c, ag);
    }
    return accepted;
}

void
MemSystem::step(Cycles now)
{
    // Each coalescing unit issues at most one burst per cycle.
    for (auto &c : cus_) {
        c.acceptedThisCycle = false;
        if (c.issueQueue.empty())
            continue;
        uint32_t slot = c.issueQueue.front();
        Burst &b = slab_[slot];
        if (b.notBefore > now)
            continue; // error-retry backoff window still open
        DramChannel &ch = dram_.channel(dram_.channelOf(b.lineAddr));
        if (!ch.canSubmit())
            continue;
        ch.submit(DramReq{b.lineAddr, b.write, slot}, now);
        b.issued = true;
        b.issuedAt = now;
        c.issueQueue.pop_front();
        ++stats_.bursts;
    }

    completed_.clear();
    dram_.step(now, completed_);

    for (const DramReq &req : completed_) {
        panic_if(req.tag >= slab_.size() || !slab_[req.tag].live,
                 "DRAM completed unknown burst");
        const auto slot = static_cast<uint32_t>(req.tag);
        Burst &b = slab_[slot];
        CuState &c = cus_.at(b.cu);

        // Consult the fault model on read responses. Write data rides
        // the command path (CRC-protected, committed at submit), so
        // only read bursts can return corrupted.
        uint32_t corruptWord = ~0u, corruptBit = 0;
        if (faultHook_ && !b.write) {
            MemFaultHook::BurstFault f =
                faultHook_->onBurstResponse(b.lineAddr, now);
            switch (f.action) {
              case MemFaultHook::BurstAction::kClean:
                break;
              case MemFaultHook::BurstAction::kCorrected:
                ++stats_.dramCorrected;
                break;
              case MemFaultHook::BurstAction::kCorrupt:
                corruptWord = (f.bit / 32) % (kBurstBytes / 4);
                corruptBit = f.bit % 32;
                break;
              case MemFaultHook::BurstAction::kRetry: {
                // Detected-uncorrectable response: drop the data and
                // re-issue the burst after an exponential backoff.
                ++stats_.dramRetries;
                b.issued = false;
                b.notBefore =
                    now + (Cycles{params_.dram.tBurst} << std::min(
                                                            b.retries, 8u));
                ++b.retries;
                c.issueQueue.push_back(slot);
                continue;
              }
            }
        }
        const Addr corruptByte =
            b.lineAddr + static_cast<Addr>(corruptWord) * 4;

        for (const Waiter &w : b.waiters) {
            if (b.write) {
                w.ag->ackWrite(w.cmdId, w.wordCount);
            } else if (w.sparse) {
                Word data = dram_.readWord(w.byteAddr);
                if (corruptWord != ~0u && w.byteAddr == corruptByte)
                    data ^= Word{1} << corruptBit;
                w.ag->deliverLane(w.cmdId, w.lane, data);
            } else {
                std::array<Word, kBurstBytes / 4> buf;
                panic_if(w.wordCount > buf.size(),
                         "burst waiter wider than a line");
                for (uint32_t i = 0; i < w.wordCount; ++i) {
                    Addr a = w.lineOffset + static_cast<Addr>(i) * 4;
                    buf[i] = dram_.readWord(a);
                    if (corruptWord != ~0u && a == corruptByte)
                        buf[i] ^= Word{1} << corruptBit;
                }
                w.ag->deliverWords(w.cmdId, w.wordOffset, buf.data(),
                                   w.wordCount);
            }
        }
        panic_if(c.outstanding == 0, "coalescer outstanding underflow");
        --c.outstanding;
        // Capacity freed: the sparse AGs it refused try again next cycle.
        for (AgSim *ag : c.parked)
            ag->requestWake();
        c.parked.clear();
        if (b.cu < cuTracks_.size())
            traceAsync(trace_, cuTracks_[b.cu], TraceName::kBurst,
                       b.issuedAt, now + 1, b.id);
        auto mit = c.mergeTable.find(b.lineAddr);
        if (mit != c.mergeTable.end() && mit->second == slot)
            c.mergeTable.erase(mit);
        freeBurst(slot);
    }

    for (CuState &c : cus_) {
        if (c.waiting.empty())
            continue;
        if (AgSim *ag = nextWaiter(c))
            ag->requestWake();
    }

    // Outstanding-burst counter per coalescing unit, on change only.
    if (!cuTracks_.empty()) {
        lastOutstanding_.resize(cus_.size(), 0);
        for (size_t i = 0; i < cus_.size(); ++i) {
            if (cus_[i].outstanding != lastOutstanding_[i]) {
                lastOutstanding_[i] = cus_[i].outstanding;
                traceCounter(trace_, cuTracks_[i], TraceName::kOutstanding,
                             now, cus_[i].outstanding);
            }
        }
    }
}

Cycles
MemSystem::nextEvent(Cycles now) const
{
    Cycles next = dram_.nextEvent(now);
    for (const CuState &c : cus_) {
        if (c.issueQueue.empty())
            continue;
        const Burst &b = slab_[c.issueQueue.front()];
        if (b.notBefore > now)
            next = std::min(next, b.notBefore);
        else if (dram_.channel(dram_.channelOf(b.lineAddr)).canSubmit())
            next = std::min(next, now + 1);
        // Otherwise the channel's next issue frees a queue slot, and
        // this unit can issue on the cycle after.
    }
    return next;
}

bool
MemSystem::quiescent() const
{
    if (freeSlots_.size() != slab_.size())
        return false; // bursts in flight
    for (const auto &c : cus_) {
        if (!c.issueQueue.empty() || c.outstanding != 0)
            return false;
    }
    return dram_.quiescent();
}

} // namespace plast

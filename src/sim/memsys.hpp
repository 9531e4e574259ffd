/**
 * @file
 * Off-chip memory access path (§3.4): Address Generators (AGs) produce
 * dense (burst) or sparse (gather/scatter) commands; per-channel
 * coalescing units split dense commands into DRAM bursts, merge sparse
 * word accesses that fall in the same burst line through a coalescing
 * cache, and bound the number of outstanding requests.
 */

#ifndef PLAST_SIM_MEMSYS_HPP
#define PLAST_SIM_MEMSYS_HPP

#include <map>
#include <vector>

#include "arch/config.hpp"
#include "arch/params.hpp"
#include "base/stateio.hpp"
#include "sim/dram.hpp"
#include "sim/execplan.hpp"
#include "sim/unitcommon.hpp"

namespace plast
{

class MemSystem;

/**
 * Fault-model hook consulted once per completed DRAM *read* burst
 * (writes are protected by the command/CRC path and committed at submit
 * time). The resilience library implements this; the default is no
 * hook, i.e. a fault-free memory system.
 */
class MemFaultHook
{
  public:
    virtual ~MemFaultHook() = default;

    enum class BurstAction : uint8_t
    {
        kClean,     ///< deliver as read
        kCorrected, ///< single-bit upset, fixed by DRAM ECC; count it
        kRetry,     ///< uncorrectable response; re-issue the burst
        kCorrupt,   ///< undetected upset: flip a bit in the delivered data
    };

    struct BurstFault
    {
        BurstAction action = BurstAction::kClean;
        /** kCorrupt: which bit of the 512-bit burst payload flips. */
        uint32_t bit = 0;
    };

    virtual BurstFault onBurstResponse(Addr lineAddr, Cycles now) = 0;
};

/** One Address Generator. */
class AgSim : public SimUnit
{
  public:
    AgSim(const ArchParams &params, uint32_t index, const AgCfg &cfg,
          MemSystem &mem, Engine engine = Engine::kOracle);

    void step(Cycles now) override;
    bool busy() const override { return state_ != State::kIdle; }

    // Callbacks from the memory system. Each wakes the AG only when the
    // AG can act on it: a delivery that completes the front command (the
    // only one drainResponses emits) or the ack of the last outstanding
    // write (the only one the drain-out state waits for).
    void deliverWords(uint64_t cmdId, uint32_t wordOffset, const Word *data,
                      uint32_t count);
    void deliverLane(uint64_t cmdId, uint32_t lane, Word data);
    void ackWrite(uint64_t cmdId, uint32_t count);

    /** Work counters; cycle accounting lives in SimUnit::ledger(). */
    struct Stats
    {
        uint64_t runs = 0;
        uint64_t denseCmds = 0;
        uint64_t sparseVecs = 0;
        uint64_t wordsLoaded = 0, wordsStored = 0;
    };
    const Stats &stats() const { return stats_; }
    const AgCfg &cfg() const { return cfg_; }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        serializeUnitBase(ar);
        io(ar, state_);
        io(ar, selfStarted_);
        io(ar, chain_);
        io(ar, fill_);
        io(ar, nextCmdId_);
        io(ar, dense_);
        io(ar, sparse_);
        io(ar, sparsePendingMask_);
        io(ar, sparsePendingId_);
        io(ar, sparsePendingAddrs_);
        io(ar, sparsePendingData_);
        io(ar, sparsePendingWrite_);
        io(ar, outstandingWrites_);
        io(ar, runStart_);
        io(ar, stats_.runs);
        io(ar, stats_.denseCmds);
        io(ar, stats_.sparseVecs);
        io(ar, stats_.wordsLoaded);
        io(ar, stats_.wordsStored);
        if constexpr (!Ar::kSaving)
            trialValid_ = false;
    }

  private:
    enum class State { kIdle, kRunning, kDrainOut };

    /** A dense command awaiting response data / write acks. */
    struct DenseCmd
    {
        uint64_t id = 0;
        uint32_t words = 0;
        uint32_t received = 0;
        uint32_t pushed = 0;
        Cycles issuedAt = 0;
        std::vector<Word> data;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, id);
            io(ar, words);
            io(ar, received);
            io(ar, pushed);
            io(ar, issuedAt);
            io(ar, data);
        }
    };

    /** A gather/scatter vector in flight. */
    struct SparseCmd
    {
        uint64_t id = 0;
        Vec data;          ///< gathered words / scatter payload
        uint32_t mask = 0; ///< lanes requested
        uint32_t remaining = 0;
        Cycles issuedAt = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, id);
            io(ar, data);
            io(ar, mask);
            io(ar, remaining);
            io(ar, issuedAt);
        }
    };

    bool tryStart(Cycles now);
    bool issueDense(Cycles now);
    bool issueSparse(Cycles now);
    bool retrySparse();
    void drainResponses(Cycles now);
    bool finishRun(Cycles now);

    ArchParams params_;
    AgCfg cfg_;
    uint32_t lanes_;
    MemSystem &mem_;
    Engine engine_;

    State state_ = State::kIdle;
    bool selfStarted_ = false;
    ChainState chain_;
    uint32_t fill_ = 0;
    uint64_t nextCmdId_ = 1;
    /** In flight, in command-id order. Ids of one AG's loads are
     *  consecutive, so a response finds its command at
     *  `cmdId - front().id`; ring slots keep their data buffers. */
    Ring<DenseCmd> dense_;
    Ring<SparseCmd> sparse_;
    /** Lanes of the current sparse vector still awaiting acceptance. */
    uint32_t sparsePendingMask_ = 0;
    uint64_t sparsePendingId_ = 0;
    Vec sparsePendingAddrs_, sparsePendingData_;
    bool sparsePendingWrite_ = false;
    uint64_t outstandingWrites_ = 0;
    std::vector<uint8_t> scalarRefs_;
    /** Speculative-issue staging (issueDense/issueSparse compute the
     *  next address on a copy of the chain and commit only if the
     *  coalescer accepts). Members so the per-cycle path reuses their
     *  capacity; re-derived every attempt, never checkpointed. */
    ChainState trialChain_;
    Wavefront wfScratch_;
    /** Production-engine memo: a dense command's address depends only
     *  on the chain position and run-constant scalars, so a command
     *  rejected by the coalescer re-submits the cached address instead
     *  of re-interpreting the stage program on its retry.
     *  trialChain_ keeps the matching advanced chain state. Derived —
     *  invalidated at run start, on issue, and on restore. */
    bool trialValid_ = false;
    Addr trialByteAddr_ = 0;

    Cycles runStart_ = 0; ///< cycle the current run's tokens fired
    Stats stats_;
};

/**
 * The coalescing units (one per DRAM channel) plus the DRAM model. AGs
 * call in with commands; each coalescing unit accepts at most one AG
 * command per cycle and tracks outstanding bursts.
 *
 * Under the activity scheduler the memory phase runs only on a cycle
 * with a submit or on its next event (nextEvent), and a refused AG
 * sleeps until it could be accepted: a dense AG on its unit's waiting
 * list until it is the lowest-index waiter whose bursts fit, a sparse
 * AG until a burst on its unit retires.
 */
class MemSystem : public SimObject
{
  public:
    explicit MemSystem(const ArchParams &params);

    DramModel &dram() { return dram_; }
    const DramModel &dram() const { return dram_; }

    /** Dense command: `words` contiguous words at byteAddr. Returns
     *  false when the channel's coalescing unit cannot accept: its port
     *  took a command this cycle, or too few outstanding slots are
     *  free. A refused AG joins the unit's waiting list. An accepted
     *  command past the DRAM image is an address fault, and dropped. */
    bool submitDense(uint32_t cu, AgSim *ag, uint64_t cmdId, Addr byteAddr,
                     uint32_t words, bool write, const Word *data);

    /**
     * Sparse command: per-lane word addresses (gather or scatter).
     * May accept only a subset of the requested lanes when the
     * coalescing cache is full; returns the accepted-lane mask (the AG
     * retries the remainder once the coalescing unit frees capacity).
     * A lane past the DRAM image is an address fault, never accepted.
     */
    uint32_t submitSparse(uint32_t cu, AgSim *ag, uint64_t cmdId,
                          const Vec &addrs, uint32_t lanes, bool write,
                          const Vec *data);

    /** One memory phase: each coalescing unit issues at most one burst,
     *  the channels schedule and respond, retired bursts wake their AGs
     *  and each unit wakes the next dense waiter it would accept. */
    void step(Cycles now);
    bool quiescent() const;
    /** After step(now): the first later cycle on which step() can change
     *  anything without a new submit (a response due, a channel's next
     *  issue, a coalescer issue the channel can take, the end of a retry
     *  backoff); kNeverCycle exactly when quiescent, since every burst
     *  in flight waits for one of these. */
    Cycles nextEvent(Cycles now) const;

    /** A unit was hard-faulted at this cycle boundary: each coalescing
     *  unit's next dense waiter evaluates on the coming cycle, since a
     *  stuck AG no longer takes the port (it may have been the one
     *  woken for it). */
    void unitStuck();

    struct Stats
    {
        uint64_t bursts = 0;
        uint64_t coalescedLanes = 0; ///< sparse lanes merged into a burst
        uint64_t denseCmds = 0, sparseCmds = 0;
        uint64_t bytesRead = 0, bytesWritten = 0;
        uint64_t dramCorrected = 0;  ///< single-bit upsets fixed by ECC
        uint64_t dramRetries = 0;    ///< bursts re-issued after an error

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, bursts);
            io(ar, coalescedLanes);
            io(ar, denseCmds);
            io(ar, sparseCmds);
            io(ar, bytesRead);
            io(ar, bytesWritten);
            io(ar, dramCorrected);
            io(ar, dramRetries);
        }
    };
    const Stats &stats() const { return stats_; }

    /** Install (or clear) the DRAM response fault model. */
    void setFaultHook(MemFaultHook *hook) { faultHook_ = hook; }
    /** Latch accesses past the DRAM image here instead of panicking. */
    void bindAddressFault(std::string *latch) { addrFault_ = latch; }

    /** One trace track per coalescing unit (burst intervals plus the
     *  outstanding-burst counter live there). */
    void bindCuTracks(std::vector<uint16_t> tracks)
    {
        cuTracks_ = std::move(tracks);
    }

  private:
    struct Waiter
    {
        AgSim *ag;
        uint64_t cmdId;
        bool sparse;
        uint32_t lane;       ///< sparse: lane index
        Addr byteAddr;       ///< sparse: word address
        uint32_t wordOffset; ///< dense: offset into the command
        uint32_t wordCount;  ///< dense: words served by this burst
        Addr lineOffset;     ///< dense: first byte within the line
    };

    /** One slab slot: a burst from coalescer acceptance to retirement.
     *  The slot index is the burst's DramReq::tag. A freed slot keeps
     *  its waiters' capacity for the next burst that takes it. */
    struct Burst
    {
        Addr lineAddr = 0;
        uint64_t id = 0;       ///< monotonic burst id (trace events)
        bool write = false;
        bool issued = false;
        bool live = false;
        std::vector<Waiter> waiters;
        uint32_t cu = 0;
        Cycles issuedAt = 0;   ///< cycle submitted to the DRAM channel
        uint32_t retries = 0;  ///< error retries so far
        Cycles notBefore = 0;  ///< backoff: earliest re-issue cycle
    };

    /** A dense AG refused by its coalescing unit, and the bursts its
     *  command needs. */
    struct DenseWaiter
    {
        AgSim *ag;
        uint32_t bursts;
    };

    struct CuState
    {
        bool acceptedThisCycle = false;
        uint32_t outstanding = 0;
        /** coalescing cache: pending line -> burst slot */
        std::map<Addr, uint32_t> mergeTable;
        Ring<uint32_t> issueQueue;
        /** Dense AGs refused for the port or the outstanding budget, by
         *  AG index. Dense ticking retries them all every cycle and
         *  admits the first whose bursts fit, so each memory phase wakes
         *  just that one; the rest sleep. An AG leaves on acceptance,
         *  and a stuck one is dropped. */
        std::vector<DenseWaiter> waiting;
        /** Sparse AGs refused for outstanding budget or cache lines.
         *  Only a burst retiring on this unit frees either, so they
         *  sleep until then. */
        std::vector<AgSim *> parked;
        // Both lists are scheduler bookkeeping: never checkpointed.
    };

    /** Latch an address fault when [byteAddr, end) passes the image. */
    bool pastImage(const char *what, Addr byteAddr, Addr end);
    uint32_t allocBurst(uint32_t cu, Addr lineAddr, bool write);
    void freeBurst(uint32_t slot);
    void addWaiter(CuState &c, AgSim *ag, uint32_t bursts);
    void park(CuState &c, AgSim *ag);
    AgSim *nextWaiter(CuState &c);

    ArchParams params_;
    DramModel dram_;
    std::vector<CuState> cus_;
    /** Burst slab. Released when the last burst retires, so a drained
     *  memory system holds no burst memory. */
    std::vector<Burst> slab_;
    std::vector<uint32_t> freeSlots_;
    uint64_t nextBurst_ = 1;
    std::vector<DramReq> completed_;
    std::vector<uint16_t> cuTracks_;     ///< empty when tracing is off
    std::vector<uint32_t> lastOutstanding_;
    Stats stats_;
    MemFaultHook *faultHook_ = nullptr;
    std::string *addrFault_ = nullptr;

  public:
    /**
     * Checkpoint the memory system. Waiters hold AgSim pointers, so the
     * caller (the fabric) provides the pointer <-> index mapping:
     * `agIndexOf(AgSim*) -> uint64_t` and `agPtrOf(uint64_t) -> AgSim*`.
     * The slab size and free list are saved so every slot index (the
     * DRAM tags in flight) restores unchanged.
     */
    template <class Ar, class AgToIdx, class IdxToAg>
    void
    serializeState(Ar &ar, AgToIdx agIndexOf, IdxToAg agPtrOf)
    {
        for (CuState &c : cus_)
        {
            io(ar, c.acceptedThisCycle);
            io(ar, c.outstanding);
            io(ar, c.mergeTable);
            io(ar, c.issueQueue);
            // A restore re-arms every unit; AGs still refused re-join.
            if constexpr (!Ar::kSaving) {
                c.waiting.clear();
                c.parked.clear();
            }
        }
        uint64_t slots = slab_.size();
        io(ar, slots);
        io(ar, freeSlots_);
        if constexpr (!Ar::kSaving)
        {
            slab_.clear();
            slab_.resize(slots);
        }
        for (Burst &b : slab_)
        {
            io(ar, b.live);
            if (b.live)
                serializeBurst(ar, b, agIndexOf, agPtrOf);
        }
        io(ar, nextBurst_);
        io(ar, stats_);
        dram_.serializeState(ar);
    }

  private:
    template <class Ar, class AgToIdx, class IdxToAg>
    void
    serializeBurst(Ar &ar, Burst &b, AgToIdx agIndexOf, IdxToAg agPtrOf)
    {
        io(ar, b.lineAddr);
        io(ar, b.id);
        io(ar, b.write);
        io(ar, b.issued);
        io(ar, b.cu);
        io(ar, b.issuedAt);
        io(ar, b.retries);
        io(ar, b.notBefore);
        uint64_t n = b.waiters.size();
        io(ar, n);
        if constexpr (!Ar::kSaving)
            b.waiters.resize(n);
        for (Waiter &w : b.waiters)
        {
            uint64_t agIdx = 0;
            if constexpr (Ar::kSaving)
                agIdx = agIndexOf(w.ag);
            io(ar, agIdx);
            if constexpr (!Ar::kSaving)
                w.ag = agPtrOf(agIdx);
            io(ar, w.cmdId);
            io(ar, w.sparse);
            io(ar, w.lane);
            io(ar, w.byteAddr);
            io(ar, w.wordOffset);
            io(ar, w.wordCount);
            io(ar, w.lineOffset);
        }
    }
};

} // namespace plast

#endif // PLAST_SIM_MEMSYS_HPP

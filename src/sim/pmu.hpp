/**
 * @file
 * Cycle-level model of a Pattern Memory Unit (Figure 4): a banked
 * scratchpad plus two access ports — a write port programmed with the
 * producer pattern's address calculation and a read port programmed
 * with the consumer's (§3.2). Each port owns a counter chain and a
 * scalar address datapath; gather/scatter ports take per-lane addresses
 * from a vector input and pay bank-conflict cycles per the banking mode.
 */

#ifndef PLAST_SIM_PMU_HPP
#define PLAST_SIM_PMU_HPP

#include <vector>

#include "arch/config.hpp"
#include "arch/params.hpp"
#include "sim/execplan.hpp"
#include "sim/scratchpad.hpp"
#include "sim/unitcommon.hpp"

namespace plast
{

class PmuSim : public SimUnit
{
  public:
    PmuSim(const ArchParams &params, uint32_t index, const PmuCfg &cfg,
           Engine engine = Engine::kOracle);

    void step(Cycles now) override;
    bool busy() const override;

    /** Work counters; cycle accounting lives in SimUnit::ledger(). */
    struct Stats
    {
        uint64_t writeRuns = 0, readRuns = 0;
        uint64_t reads = 0, writes = 0; ///< vector accesses
        uint64_t wordsRead = 0, wordsWritten = 0;
    };
    const Stats &stats() const { return stats_; }

    /** Per-port trace tracks: read/write port runs overlap in time, so
     *  each port gets its own display track. */
    void
    bindPortTracks(uint16_t write, uint16_t write2, uint16_t read)
    {
        write_.track = write;
        write2_.track = write2;
        read_.track = read;
    }

    /** Test access to storage (checked against references in tests). */
    const Scratchpad &scratch() const { return scratch_; }
    /** Mutable access for ECC control and fault injection. */
    Scratchpad &scratch() { return scratch_; }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        serializeUnitBase(ar);
        io(ar, scratch_);
        write_.serializeState(ar);
        write2_.serializeState(ar);
        read_.serializeState(ar);
        io(ar, stats_.writeRuns);
        io(ar, stats_.readRuns);
        io(ar, stats_.reads);
        io(ar, stats_.writes);
        io(ar, stats_.wordsRead);
        io(ar, stats_.wordsWritten);
    }

  private:
    /** Runtime state of one access port. */
    struct Port
    {
        const PmuPortCfg *cfg = nullptr;
        bool isWrite = false;
        enum class State { kIdle, kFilling, kRunning } state = State::kIdle;
        bool selfStarted = false;
        ChainState chain;
        uint32_t fill = 0;       ///< pipeline-fill countdown at run start
        uint32_t busy = 0;       ///< bank-conflict busy cycles remaining
        uint32_t bufIdx = 0;     ///< N-buffer pointer
        uint64_t runCount = 0;   ///< completed runs (swap/clear cadence)
        uint32_t appendCursor = 0; ///< FlatMap append position
        uint16_t track = 0;      ///< trace track of this port
        Cycles runStart = 0;     ///< cycle this run's tokens fired
        std::vector<uint8_t> scalarRefs;
        /** Issue/address staging reused across accesses so the hot
         *  path never allocates. Fully re-derived per access (a port's
         *  config fixes which fields each access writes before any
         *  read), so none of it is checkpointed. */
        Wavefront wfScratch;
        std::vector<uint32_t> addrScratch;
        std::vector<uint32_t> activeScratch;
        /** Lowered address path (derived, rebuilt on construction). */
        PmuPortPlan plan;
        /** PmuAddrPlan slot values for the current run. Evaluated
         *  lazily on first access — run start and checkpoint restore
         *  just clear the valid flag — so they are never on the tape
         *  and restore needs no stream-ordering guarantees. */
        std::vector<Word> runConsts;
        bool runConstsValid = false;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, state);
            io(ar, selfStarted);
            io(ar, chain);
            io(ar, fill);
            io(ar, busy);
            io(ar, bufIdx);
            io(ar, runCount);
            io(ar, appendCursor);
            io(ar, runStart);
            if constexpr (!Ar::kSaving)
                runConstsValid = false;
        }
    };

    bool stepPort(Port &port, Cycles now);
    bool portAccess(Port &port);
    bool portAccessPlanned(Port &port);

    ArchParams params_;
    PmuCfg cfg_;
    uint32_t lanes_;
    Engine engine_;

    Scratchpad scratch_;
    Port write_, write2_, read_;
    Stats stats_;
};

} // namespace plast

#endif // PLAST_SIM_PMU_HPP

/**
 * @file
 * Cycle-level model of a Pattern Compute Unit (Figure 3): a counter
 * chain issues one wavefront of pattern indices per cycle into a
 * multi-stage SIMD pipeline of functional units. Cross-lane reduction
 * tree steps, the shift network, accumulators, FlatMap valid-word
 * coalescing on vector outputs, and token-gated execution runs are all
 * modelled per cycle.
 *
 * Construction lowers the PcuCfg into a PcuExecPlan (execplan.hpp);
 * evaluate() is thereby split into plan-build (once) and plan-execute
 * (per cycle). Under Engine::kProduction the per-cycle path runs the
 * plan's monomorphic kernels over contiguous lane arrays; kOracle
 * keeps the reference per-lane interpretation of the raw StageCfg.
 * Both engines share the plan's liveness sets (which output ports to
 * scan, which registers to reset) and the pooled wavefront slots that
 * replace per-issue std::optional<Wavefront> copies.
 */

#ifndef PLAST_SIM_PCU_HPP
#define PLAST_SIM_PCU_HPP

#include <memory>
#include <vector>

#include "arch/config.hpp"
#include "arch/params.hpp"
#include "sim/execplan.hpp"
#include "sim/unitcommon.hpp"

namespace plast
{

class PcuSim : public SimUnit
{
  public:
    PcuSim(const ArchParams &params, uint32_t index, const PcuCfg &cfg,
           Engine engine = Engine::kOracle);

    void step(Cycles now) override;
    bool busy() const override { return state_ != State::kIdle; }

    /** Work counters; cycle accounting lives in SimUnit::ledger(). */
    struct Stats
    {
        uint64_t runs = 0;
        uint64_t wavefronts = 0;
        uint64_t laneOps = 0; ///< FU-lane operations executed
    };
    const Stats &stats() const { return stats_; }
    const PcuExecPlan &plan() const { return plan_; }

    /**
     * Fault injection: flip bit `bit` of pipeline register `reg` in
     * lane `lane` of the oldest in-flight wavefront. Returns false when
     * the pipeline is empty (the upset lands in an unused latch and is
     * architecturally masked).
     */
    bool injectRegFlip(uint32_t reg, uint32_t lane, uint32_t bit);

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        serializeUnitBase(ar);
        io(ar, state_);
        io(ar, selfStarted_);
        io(ar, chain_);
        // Pipeline slots are pool-recycled pointers but keep the
        // std::optional tape encoding (has-flag, then contents), so
        // checkpoints are bit-identical across sim modes and with
        // pre-pool tapes.
        for (auto &slot : pipe_) {
            uint64_t has = slot ? 1 : 0;
            io(ar, has);
            if (has && !slot)
                slot = grabSlot(); // loading into an empty latch
            if (!has && slot)
                recycleSlot(std::move(slot));
            if (has)
                slot->serializeState(ar);
        }
        io(ar, acc_);
        io(ar, coalesceBuf_);
        io(ar, coalesceCount_);
        io(ar, flushedCoalesce_);
        io(ar, extraDirtyRegs_);
        io(ar, runStart_);
        io(ar, retiredWf_);
        io(ar, stats_.runs);
        io(ar, stats_.wavefronts);
        io(ar, stats_.laneOps);
    }

  private:
    enum class State { kIdle, kRunning, kDraining };

    bool tryStart(Cycles now);
    void advancePipeline(Cycles now);
    bool tryIssue(Cycles now);
    bool tryRetire(const Wavefront &wf, Cycles now);
    void applyStage(size_t idx, Wavefront &wf);
    void applyStagePlanned(size_t idx, Wavefront &wf);
    Word operandValue(const Operand &op, const Wavefront &wf,
                      uint32_t lane) const;
    /** Resolve an operand to a contiguous lane array (the wavefront's
     *  own storage where possible, else broadcast/iota into scratch). */
    const Word *operandLanes(const Operand &op, const Wavefront &wf,
                             Word *scratch) const;
    bool finishRun(Cycles now);
    std::unique_ptr<Wavefront> grabSlot();
    void recycleSlot(std::unique_ptr<Wavefront> wf);

    ArchParams params_;
    PcuCfg cfg_;
    uint32_t lanes_;
    Engine engine_;
    PcuExecPlan plan_;

    State state_ = State::kIdle;
    bool selfStarted_ = false;
    ChainState chain_;
    /** One latch per stage; null = bubble. Slots cycle through wfPool_
     *  so the steady state allocates nothing. */
    std::vector<std::unique_ptr<Wavefront>> pipe_;
    std::vector<std::unique_ptr<Wavefront>> wfPool_;
    /** Persistent accumulator registers, one set per accum stage. */
    std::vector<std::array<Word, kMaxLanes>> acc_;
    /** FlatMap coalescing buffers, one per vector output port. */
    std::vector<std::vector<Word>> coalesceBuf_;
    std::vector<uint64_t> coalesceCount_;
    bool flushedCoalesce_ = false;
    /** Registers dirtied outside the datapath (injectRegFlip): added to
     *  the per-issue reset set forever after, and checkpointed, so pool
     *  recycling stays invisible even under fault campaigns. */
    uint32_t extraDirtyRegs_ = 0;

    std::vector<uint8_t> scalarRefs_;
    std::vector<uint8_t> vectorRefs_;
    /** Broadcast/iota staging for operandLanes, one per operand slot. */
    std::array<std::array<Word, kMaxLanes>, 3> opScratch_{};

    Cycles runStart_ = 0;    ///< cycle the current run's tokens fired
    uint64_t retiredWf_ = 0; ///< retire id for wavefront trace intervals
    Stats stats_;
};

} // namespace plast

#endif // PLAST_SIM_PCU_HPP

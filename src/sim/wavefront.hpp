/**
 * @file
 * Counter-chain runtime state and the wavefront record that travels down
 * a PCU pipeline: one wavefront per issued vector of pattern indices.
 */

#ifndef PLAST_SIM_WAVEFRONT_HPP
#define PLAST_SIM_WAVEFRONT_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "arch/config.hpp"
#include "base/logging.hpp"
#include "base/stateio.hpp"
#include "base/types.hpp"

namespace plast
{

constexpr uint32_t kMaxRegs = 16;
constexpr uint32_t kMaxCtrs = 8;
constexpr uint32_t kMaxVecPorts = 10;

/**
 * A wavefront: the pipeline-register contents of one index vector as it
 * moves through the stages, plus the counter snapshot and fold-boundary
 * flags captured at issue.
 */
struct Wavefront
{
    /** Pipeline registers, regs x lanes. */
    std::array<std::array<Word, kMaxLanes>, kMaxRegs> regs{};
    /** Per-lane validity (partial last vectors, FlatMap filtering). */
    uint32_t mask = 0;
    /** Scalar counter snapshot; lane l of a vectorized counter sees
     *  ctr[i] + l*step. */
    std::array<int64_t, kMaxCtrs> ctr{};
    int64_t vecStep = 1;    ///< step of the vectorized innermost counter
    int8_t vecCtr = -1;     ///< which counter is vectorized (-1: none)
    /** Bit k set: counters k..innermost are at their first iteration. */
    uint16_t firstLevels = 0;
    /** Bit k set: counters k..innermost are at their final iteration. */
    uint16_t lastLevels = 0;
    /** Data popped from vector inputs for this wavefront. */
    std::array<Vec, kMaxVecPorts> vecIn{};
    /** Issue cycle, for retire-time trace intervals. */
    Cycles issuedAt = 0;

    bool firstAtLevel(uint8_t lvl) const { return (firstLevels >> lvl) & 1; }
    bool lastAtLevel(uint8_t lvl) const { return (lastLevels >> lvl) & 1; }
    bool valid(uint32_t lane) const { return (mask >> lane) & 1u; }
    void setValid(uint32_t lane) { mask |= (1u << lane); }
    void clearValid(uint32_t lane) { mask &= ~(1u << lane); }
    uint32_t popcountValid() const { return __builtin_popcount(mask); }

    /** Value of counter `idx` as seen by `lane`. */
    int64_t
    ctrLane(uint8_t idx, uint32_t lane) const
    {
        if (static_cast<int8_t>(idx) == vecCtr)
            return ctr[idx] + static_cast<int64_t>(lane) * vecStep;
        return ctr[idx];
    }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, regs);
        io(ar, mask);
        io(ar, ctr);
        io(ar, vecStep);
        io(ar, vecCtr);
        io(ar, firstLevels);
        io(ar, lastLevels);
        io(ar, vecIn);
        io(ar, issuedAt);
    }
};

/**
 * Runtime state of a configured counter chain. Dynamic bounds
 * (CounterCfg::maxFromScalarIn) are resolved by the owning unit when a
 * run starts and passed to reset().
 */
class ChainState
{
  public:
    void
    configure(const ChainCfg &cfg, uint32_t lanes)
    {
        cfg_ = cfg;
        lanes_ = lanes;
        panic_if(cfg.ctrs.size() > kMaxCtrs, "counter chain too deep");
    }

    /** Begin a run; `bounds` are the resolved per-counter maxima. */
    void
    reset(const std::vector<int64_t> &bounds)
    {
        bounds_ = bounds;
        cur_.assign(cfg_.ctrs.size(), 0);
        for (size_t i = 0; i < cfg_.ctrs.size(); ++i)
            cur_[i] = cfg_.ctrs[i].min;
        done_ = cfg_.ctrs.empty() ? false : trips() == 0;
        oneshotFired_ = false;
    }

    bool done() const { return done_; }

    size_t depth() const { return cfg_.ctrs.size(); }

    /**
     * Capture the current chain position into a wavefront (counter
     * values, per-level first/last flags, lane validity) and advance.
     */
    void issueInto(Wavefront &wf);

    /**
     * Counters-only issue for callers that read no flags (planned PMU
     * ports): write the counter values into the first depth() entries
     * of `ctr`, advance exactly as issueInto does, and return the lane
     * mask issueInto would have set.
     */
    uint32_t issueCounters(std::array<int64_t, kMaxCtrs> &ctr);

    /** Copy another identically-configured chain's run position without
     *  touching configuration. Reuses vector capacity, so the AG's
     *  speculative trial-issue does not allocate per attempt. */
    void
    copyRunStateFrom(const ChainState &o)
    {
        cur_.assign(o.cur_.begin(), o.cur_.end());
        bounds_.assign(o.bounds_.begin(), o.bounds_.end());
        done_ = o.done_;
        oneshotFired_ = o.oneshotFired_;
    }

    /** Checkpoint the run-position state (cfg_/lanes_ are rebuilt from
     *  the FabricConfig and never serialized). */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, cur_);
        io(ar, bounds_);
        io(ar, done_);
        io(ar, oneshotFired_);
    }

  private:
    int64_t
    trips() const
    {
        int64_t t = 1;
        for (size_t i = 0; i < cfg_.ctrs.size(); ++i)
            t *= cfg_.ctrs[i].trips(bounds_[i], lanes_);
        return t;
    }

    ChainCfg cfg_;
    uint32_t lanes_ = 1;
    std::vector<int64_t> cur_;
    std::vector<int64_t> bounds_;
    bool done_ = true;
    bool oneshotFired_ = false;
};

} // namespace plast

#endif // PLAST_SIM_WAVEFRONT_HPP

#include "sim/wavefront.hpp"

#include <algorithm>

namespace plast
{

namespace
{

/** Lane validity of a wavefront whose innermost counter is `inner` at
 *  `cur` below `bound`: non-vectorized chains issue a full wavefront
 *  whose every lane sees the same indices; vectorized chains mask lanes
 *  at or beyond the bound. */
uint32_t
laneMask(const CounterCfg &inner, int64_t cur, int64_t bound,
         uint32_t lanes)
{
    const uint32_t full = lanes >= 32 ? ~0u : (1u << lanes) - 1;
    if (!inner.vectorized)
        return full;
    if (inner.step > 0) {
        // Valid lanes are the contiguous prefix where cur + l*step <
        // bound: ceil(left / step) lanes. That count reaches every lane
        // exactly when left > (lanes - 1) * step, which needs no
        // division.
        const int64_t left = bound - cur;
        if (left > (static_cast<int64_t>(lanes) - 1) * inner.step)
            return full;
        if (left <= 0)
            return 0;
        const int64_t k = (left + inner.step - 1) / inner.step;
        return (1u << static_cast<uint32_t>(k)) - 1;
    }
    uint32_t mask = 0;
    for (uint32_t l = 0; l < lanes; ++l) {
        if (cur + static_cast<int64_t>(l) * inner.step < bound)
            mask |= 1u << l;
    }
    return mask;
}

} // namespace

uint32_t
ChainState::issueCounters(std::array<int64_t, kMaxCtrs> &ctr)
{
    const size_t n = cfg_.ctrs.size();
    if (n == 0) {
        // Empty chain: one wavefront per run, single "lane 0" index.
        panic_if(oneshotFired_, "empty chain issued twice");
        oneshotFired_ = true;
        done_ = true;
        return 1;
    }
    panic_if(done_, "issue on completed chain");
    for (size_t i = 0; i < n; ++i)
        ctr[i] = cur_[i];
    const uint32_t mask =
        laneMask(cfg_.ctrs[n - 1], cur_[n - 1], bounds_[n - 1], lanes_);

    // Advance the chain (innermost fastest).
    for (size_t i = n; i-- > 0;) {
        const CounterCfg &cc = cfg_.ctrs[i];
        int64_t per = (cc.vectorized ? cc.step * lanes_ : cc.step);
        cur_[i] += per;
        if (cur_[i] < bounds_[i])
            return mask;
        cur_[i] = cc.min;
    }
    done_ = true;
    return mask;
}

void
ChainState::issueInto(Wavefront &wf)
{
    const size_t n = cfg_.ctrs.size();
    // Define the full counter snapshot, not just the configured depth:
    // issue targets may be recycled pool wavefronts (sim/pcu.cpp), and
    // a fresh Wavefront zero-initialises ctr — reuse must match. The
    // live slots are written by issueCounters, so only the tail needs
    // zeroing.
    std::fill(wf.ctr.begin() + static_cast<long>(n), wf.ctr.end(), 0);
    wf.mask = issueCounters(wf.ctr);
    wf.vecCtr = -1;
    wf.vecStep = 1;
    if (n == 0) {
        wf.firstLevels = 0xffff;
        wf.lastLevels = 0xffff;
        return;
    }
    const CounterCfg &inner = cfg_.ctrs[n - 1];
    if (inner.vectorized) {
        wf.vecCtr = static_cast<int8_t>(n - 1);
        wf.vecStep = inner.step;
    }

    // First/last flags per level, from the issued snapshot: level k is
    // "first" when counters k..n-1 are all at their starting value,
    // "last" when this is the final wavefront for counters k..n-1.
    wf.firstLevels = 0;
    wf.lastLevels = 0;
    bool first = true, last = true;
    for (size_t i = n; i-- > 0;) {
        const CounterCfg &cc = cfg_.ctrs[i];
        int64_t per = (cc.vectorized ? cc.step * lanes_ : cc.step);
        first = first && wf.ctr[i] == cc.min;
        last = last && wf.ctr[i] + per >= bounds_[i];
        if (first)
            wf.firstLevels |= static_cast<uint16_t>(1u << i);
        if (last)
            wf.lastLevels |= static_cast<uint16_t>(1u << i);
    }
}

} // namespace plast

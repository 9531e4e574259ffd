/** @file Counter-chain runtime: trips, vectorized masking, the
 *  first/last boundary flags and the counters-only issue — verified
 *  against naive enumeration. */

#include <gtest/gtest.h>

#include <array>

#include "base/rng.hpp"
#include "sim/wavefront.hpp"

using namespace plast;

namespace
{

ChainCfg
chain3(int64_t a, int64_t b, int64_t c, bool vec)
{
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, a, false, -1, 1});
    cfg.ctrs.push_back({0, 1, b, false, -1, 1});
    cfg.ctrs.push_back({0, 1, c, vec, -1, 1});
    return cfg;
}

} // namespace

TEST(Chain, ScalarTripCount)
{
    ChainState cs;
    cs.configure(chain3(2, 3, 4, false), 16);
    cs.reset({2, 3, 4});
    int n = 0;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        ++n;
    }
    EXPECT_EQ(n, 2 * 3 * 4);
}

TEST(Chain, VectorizedTripCountRoundsUp)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, 37, true, -1, 1});
    cs.configure(cfg, 16);
    cs.reset({37});
    int n = 0;
    uint32_t last_mask = 0;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        last_mask = wf.mask;
        ++n;
    }
    EXPECT_EQ(n, 3); // ceil(37/16)
    EXPECT_EQ(__builtin_popcount(last_mask), 37 - 32);
}

TEST(Chain, VectorizedLaneValues)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, 20, true, -1, 1});
    cs.configure(cfg, 16);
    cs.reset({20});
    Wavefront wf;
    cs.issueInto(wf);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(wf.ctrLane(0, l), static_cast<int64_t>(l));
    cs.issueInto(wf);
    EXPECT_EQ(wf.ctrLane(0, 0), 16);
    EXPECT_EQ(wf.ctrLane(0, 3), 19);
    EXPECT_FALSE(wf.valid(4)); // 20..35 masked beyond bound
}

TEST(Chain, FirstLastFlagsExactOnce)
{
    ChainState cs;
    cs.configure(chain3(2, 3, 2, false), 16);
    cs.reset({2, 3, 2});
    int firsts0 = 0, lasts0 = 0, firsts1 = 0, lasts1 = 0;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        firsts0 += wf.firstAtLevel(0);
        lasts0 += wf.lastAtLevel(0);
        firsts1 += wf.firstAtLevel(1);
        lasts1 += wf.lastAtLevel(1);
    }
    EXPECT_EQ(firsts0, 1); // whole chain starts once
    EXPECT_EQ(lasts0, 1);  // ends once
    EXPECT_EQ(firsts1, 2); // once per outer iteration
    EXPECT_EQ(lasts1, 2);
}

TEST(Chain, ZeroTripIsDoneImmediately)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({0, 1, 0, true, -1, 1});
    cs.configure(cfg, 16);
    cs.reset({0});
    EXPECT_TRUE(cs.done());
}

TEST(Chain, EmptyChainIssuesExactlyOnce)
{
    ChainState cs;
    cs.configure(ChainCfg{}, 16);
    cs.reset({});
    EXPECT_FALSE(cs.done());
    Wavefront wf;
    cs.issueInto(wf);
    EXPECT_TRUE(cs.done());
    EXPECT_TRUE(wf.firstAtLevel(0));
    EXPECT_TRUE(wf.lastAtLevel(0));
    EXPECT_EQ(wf.mask, 1u);
}

TEST(Chain, NonUnitStep)
{
    ChainState cs;
    ChainCfg cfg;
    cfg.ctrs.push_back({4, 3, 20, false, -1, 1}); // 4,7,10,13,16,19
    cs.configure(cfg, 16);
    cs.reset({20});
    std::vector<int64_t> seen;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        seen.push_back(wf.ctr[0]);
    }
    EXPECT_EQ(seen, (std::vector<int64_t>{4, 7, 10, 13, 16, 19}));
}

/** Property: wavefront count, lane masks and per-level boundary flags
 *  agree with direct enumeration for random chains, and a second,
 *  identically configured chain issuing counters-only (the planned PMU
 *  path) sees the same counter values and lane mask on every issue. */
class RandomChains : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomChains, MatchesNaiveEnumeration)
{
    constexpr uint32_t kLanes = 16;
    Rng rng(GetParam());
    ChainCfg cfg;
    size_t depth = 1 + rng.nextBounded(3);
    std::vector<int64_t> bounds, trips;
    for (size_t i = 0; i < depth; ++i) {
        int64_t max = 1 + static_cast<int64_t>(rng.nextBounded(64));
        int64_t step = 1 + static_cast<int64_t>(rng.nextBounded(3));
        bool vec = (i == depth - 1) && (rng.nextBounded(2) == 0);
        cfg.ctrs.push_back({0, step, max, vec, -1, 1});
        bounds.push_back(max);
        int64_t per = vec ? step * kLanes : step;
        trips.push_back((max + per - 1) / per);
    }
    int64_t expect = 1;
    for (int64_t t : trips)
        expect *= t;
    const CounterCfg &inner = cfg.ctrs.back();
    ChainState cs, counters;
    cs.configure(cfg, kLanes);
    counters.configure(cfg, kLanes);
    cs.reset(bounds);
    counters.reset(bounds);
    int64_t n = 0;
    int64_t innermost_firsts = 0;
    while (!cs.done()) {
        Wavefront wf;
        cs.issueInto(wf);
        ++n;
        innermost_firsts +=
            wf.firstAtLevel(static_cast<uint8_t>(depth - 1));
        // Lane l is valid while the innermost counter's l-th value is
        // inside its bound; a non-vectorized chain fills every lane.
        uint32_t naive = 0;
        for (uint32_t l = 0; l < kLanes; ++l) {
            int64_t v = wf.ctr[depth - 1] +
                        (inner.vectorized ? l * inner.step : 0);
            if (v < inner.max)
                naive |= 1u << l;
        }
        EXPECT_EQ(wf.mask, naive) << "issue " << n;
        ASSERT_FALSE(counters.done()) << "issue " << n;
        std::array<int64_t, kMaxCtrs> ctr{};
        EXPECT_EQ(counters.issueCounters(ctr), wf.mask) << "issue " << n;
        EXPECT_EQ(ctr, wf.ctr) << "issue " << n;
        ASSERT_LE(n, expect);
    }
    EXPECT_EQ(n, expect);
    EXPECT_TRUE(counters.done());
    // The innermost level restarts once per enclosing iteration.
    EXPECT_EQ(innermost_firsts, expect / trips.back());
}

// Among seeds 1-48 the vectorized chains issue full and partial masks,
// and land on both sides of the full-mask edge: left == 15 * step
// (seed 22) and one more (seed 43).
INSTANTIATE_TEST_SUITE_P(Seeds, RandomChains,
                         ::testing::Range<uint64_t>(1, 49));

TEST(Chain, BoundScaleMultipliesDynamicBound)
{
    // resolveBounds path is exercised in unitcommon; here check the
    // CounterCfg::trips helper used by sizing code.
    CounterCfg cc;
    cc.vectorized = true;
    EXPECT_EQ(cc.trips(32, 16), 2);
    EXPECT_EQ(cc.trips(33, 16), 3);
    cc.vectorized = false;
    cc.step = 4;
    EXPECT_EQ(cc.trips(16, 16), 4);
    EXPECT_EQ(cc.trips(0, 16), 0);
}

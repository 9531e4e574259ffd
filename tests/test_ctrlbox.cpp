/** @file Control boxes: iteration issue, counter exports, metapipe
 *  depth bounding, and done collection (§3.5 protocols). */

#include <gtest/gtest.h>

#include <memory>

#include "sim/ctrlbox.hpp"

using namespace plast;

namespace
{

struct BoxHarness
{
    ArchParams params;
    std::unique_ptr<CtrlBoxSim> box;
    std::unique_ptr<ControlStream> start, childDone;
    std::unique_ptr<ScalarStream> exportStream;
    Cycles now = 0;

    explicit BoxHarness(ControlBoxCfg cfg)
    {
        cfg.used = true;
        box = std::make_unique<CtrlBoxSim>(params, 0, cfg);
        start = std::make_unique<ControlStream>("start", 1, 16);
        childDone = std::make_unique<ControlStream>("cd", 1, 16);
        exportStream = std::make_unique<ScalarStream>("ex", 1, 16);
        if (!cfg.childStartOuts.empty())
            box->ports.ctlOut[cfg.childStartOuts[0]].sinks.push_back(
                start.get());
        if (!cfg.childDoneIns.empty())
            box->ports.ctlIn[cfg.childDoneIns[0]].stream =
                childDone.get();
        if (!cfg.exports.empty())
            box->ports.scalOut[cfg.exports[0].scalarOutPort]
                .sinks.push_back(exportStream.get());
    }

    void
    step(int n = 1)
    {
        for (int i = 0; i < n; ++i) {
            box->step(now);
            start->commit(now);
            childDone->commit(now);
            exportStream->commit(now);
            ++now;
        }
    }
};

ControlBoxCfg
loopCfg(int64_t trips, CtrlScheme scheme, uint32_t depth)
{
    ControlBoxCfg cfg;
    cfg.scheme = scheme;
    CounterCfg cc;
    cc.max = trips;
    cfg.chain.ctrs = {cc};
    cfg.childStartOuts = {0};
    cfg.childDoneIns = {0};
    cfg.depth = depth;
    cfg.exports = {{0, 0}};
    return cfg;
}

} // namespace

TEST(CtrlBox, SequentialIssuesOneIterationAtATime)
{
    BoxHarness h(loopCfg(3, CtrlScheme::kSequential, 1));
    h.step(10);
    EXPECT_EQ(h.start->available(), 1u) << "depth 1: one start in flight";
    // Complete iteration 1.
    h.childDone->preload(Token{});
    h.step(10);
    EXPECT_EQ(h.start->available(), 2u);
    h.childDone->preload(Token{});
    h.childDone->preload(Token{});
    h.step(10);
    EXPECT_EQ(h.start->available(), 3u);
    EXPECT_EQ(h.box->runsCompleted(), 1u);
}

TEST(CtrlBox, MetapipeRunsAheadUpToDepth)
{
    BoxHarness h(loopCfg(8, CtrlScheme::kMetapipe, 3));
    h.step(20);
    EXPECT_EQ(h.start->available(), 3u) << "three iterations in flight";
    h.childDone->preload(Token{});
    h.step(10);
    EXPECT_EQ(h.start->available(), 4u);
}

TEST(CtrlBox, ExportsCounterValuesInOrder)
{
    BoxHarness h(loopCfg(4, CtrlScheme::kMetapipe, 4));
    h.step(20);
    std::vector<Word> exports;
    while (h.exportStream->canPop()) {
        exports.push_back(h.exportStream->front());
        h.exportStream->pop();
    }
    EXPECT_EQ(exports, (std::vector<Word>{0, 1, 2, 3}));
}

TEST(CtrlBox, CompletesAfterAllChildDones)
{
    BoxHarness h(loopCfg(2, CtrlScheme::kSequential, 1));
    h.step(10);
    EXPECT_EQ(h.box->runsCompleted(), 0u);
    h.childDone->preload(Token{});
    h.childDone->preload(Token{});
    h.step(20);
    EXPECT_EQ(h.box->runsCompleted(), 1u);
    EXPECT_FALSE(h.box->busy());
}

TEST(CtrlBox, SelfStartsOnlyOnce)
{
    // No token inputs: the root controller runs a single sweep.
    BoxHarness h(loopCfg(2, CtrlScheme::kSequential, 1));
    h.childDone->preload(Token{});
    h.childDone->preload(Token{});
    h.step(50);
    EXPECT_EQ(h.box->runsCompleted(), 1u);
    h.childDone->preload(Token{});
    h.step(50);
    EXPECT_EQ(h.box->runsCompleted(), 1u) << "must not restart";
}

/** @file PMU ports: linear/broadcast/gather reads, scatter and append
 *  writes, RMW accumulation, N-buffer rotation and clearing. */

#include <gtest/gtest.h>

#include <memory>

#include "sim/pmu.hpp"

using namespace plast;

namespace
{

struct PmuHarness
{
    ArchParams params;
    std::unique_ptr<PmuSim> pmu;
    std::vector<std::unique_ptr<VectorStream>> ins;
    std::unique_ptr<VectorStream> out;
    std::unique_ptr<ControlStream> wr2rd;
    std::vector<std::unique_ptr<ScalarStream>> scalIns;
    Cycles now = 0;

    std::unique_ptr<ControlStream> wtok;

    /** writerTokens > 0: drive the write port with explicit run tokens
     *  (a self-starting port runs only once, like units without parent
     *  controllers). */
    explicit PmuHarness(PmuCfg cfg, uint32_t writerTokens = 0)
    {
        cfg.used = true;
        // Order the reader behind the writer, as mapped configs do.
        bool gate = cfg.write.enabled && cfg.read.enabled;
        if (gate) {
            cfg.write.ctrl.doneOuts = {0};
            cfg.read.ctrl.tokenIns = {0};
        }
        if (writerTokens > 0)
            cfg.write.ctrl.tokenIns = {1};
        pmu = std::make_unique<PmuSim>(params, 0, cfg);
        ins.resize(params.pmu.vectorIns);
        for (size_t i = 0; i < ins.size(); ++i) {
            ins[i] = std::make_unique<VectorStream>("vi", 1, 64);
            pmu->ports.vecIn[i].stream = ins[i].get();
        }
        out = std::make_unique<VectorStream>("vo", 1, 64);
        pmu->ports.vecOut[0].sinks.push_back(out.get());
        if (gate) {
            wr2rd = std::make_unique<ControlStream>("w2r", 1, 16);
            pmu->ports.ctlOut[0].sinks.push_back(wr2rd.get());
            pmu->ports.ctlIn[0].stream = wr2rd.get();
        }
        if (writerTokens > 0) {
            wtok = std::make_unique<ControlStream>("wt", 1, 16);
            for (uint32_t t = 0; t < writerTokens; ++t)
                wtok->preload(Token{});
            pmu->ports.ctlIn[1].stream = wtok.get();
        }
    }

    void
    step(int cycles = 1)
    {
        for (int i = 0; i < cycles; ++i) {
            pmu->step(now);
            for (auto &s : ins)
                s->commit(now);
            out->commit(now);
            if (wr2rd)
                wr2rd->commit(now);
            if (wtok)
                wtok->commit(now);
            for (auto &s : scalIns)
                s->commit(now);
            ++now;
        }
    }

    Vec
    vecOf(std::initializer_list<Word> vals)
    {
        Vec v;
        uint32_t l = 0;
        for (Word w : vals) {
            v.lane[l] = w;
            v.setValid(l);
            ++l;
        }
        return v;
    }
};

/** Linear write of n words from vec-in 0; linear read to vec-out 0. */
PmuCfg
copyCfg(int64_t n, uint8_t nbuf = 1)
{
    PmuCfg cfg;
    cfg.scratch.sizeWords = 1024;
    cfg.scratch.numBufs = nbuf;
    CounterCfg cc;
    cc.max = n;
    cc.vectorized = true;
    cfg.write.enabled = true;
    cfg.write.chain.ctrs = {cc};
    cfg.write.vecLinear = true;
    StageCfg st;
    st.op = FuOp::kNop;
    st.a = Operand::ctr(0);
    st.dstReg = 0;
    cfg.write.addrStages = {st};
    cfg.write.addrReg = 0;
    cfg.write.dataVecIn = 0;
    cfg.read.enabled = true;
    cfg.read.chain.ctrs = {cc};
    cfg.read.vecLinear = true;
    cfg.read.addrStages = {st};
    cfg.read.addrReg = 0;
    cfg.read.dataVecOut = 0;
    return cfg;
}

} // namespace

TEST(Pmu, LinearWriteThenRead)
{
    PmuCfg cfg = copyCfg(32);
    PmuHarness h(cfg);
    for (int i = 0; i < 2; ++i) {
        Vec v;
        for (uint32_t l = 0; l < 16; ++l) {
            v.lane[l] = 100 + i * 16 + l;
            v.setValid(l);
        }
        h.ins[0]->push(v);
    }
    std::vector<Word> got;
    for (int c = 0; c < 200 && got.size() < 32; ++c) {
        h.step();
        while (h.out->canPop()) {
            const Vec &v = h.out->front();
            for (uint32_t l = 0; l < 16; ++l)
                got.push_back(v.lane[l]);
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 32u);
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(got[i], 100 + i);
}

TEST(Pmu, BroadcastReadFillsAllLanes)
{
    PmuCfg cfg;
    cfg.scratch.sizeWords = 64;
    CounterCfg one;
    one.max = 4;
    cfg.read.enabled = true;
    cfg.read.chain.ctrs = {one};
    cfg.read.broadcast = true;
    StageCfg st;
    st.op = FuOp::kIMul;
    st.a = Operand::ctr(0);
    st.b = Operand::immInt(2);
    st.dstReg = 0;
    cfg.read.addrStages = {st};
    cfg.read.addrReg = 0;
    cfg.read.dataVecOut = 0;
    PmuHarness h(cfg);
    // Use a fresh harness with a write port instead:
    PmuCfg wc = copyCfg(16);
    wc.read = cfg.read;
    PmuHarness h2(wc);
    Vec v;
    for (uint32_t l = 0; l < 16; ++l) {
        v.lane[l] = l * 11;
        v.setValid(l);
    }
    h2.ins[0]->push(v);
    std::vector<Vec> got;
    for (int c = 0; c < 200 && got.size() < 4; ++c) {
        h2.step();
        while (h2.out->canPop()) {
            got.push_back(h2.out->front());
            h2.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(got[i].popcount(), 16u) << "broadcast fills the mask";
        for (uint32_t l = 0; l < 16; ++l)
            EXPECT_EQ(got[i].lane[l], static_cast<Word>(i * 2 * 11));
    }
}

TEST(Pmu, GatherReadHonorsPerLaneAddresses)
{
    PmuCfg cfg = copyCfg(16);
    cfg.read.vecLinear = false;
    cfg.read.addrStages.clear();
    cfg.read.addrVecIn = 1;
    PmuHarness h(cfg);
    Vec data;
    for (uint32_t l = 0; l < 16; ++l) {
        data.lane[l] = 1000 + l;
        data.setValid(l);
    }
    h.ins[0]->push(data);
    Vec addrs;
    for (uint32_t l = 0; l < 16; ++l) {
        addrs.lane[l] = 15 - l; // reversed gather
        addrs.setValid(l);
    }
    h.ins[1]->push(addrs);
    std::vector<Vec> got;
    for (int c = 0; c < 200 && got.empty(); ++c) {
        h.step();
        while (h.out->canPop()) {
            got.push_back(h.out->front());
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 1u);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(got[0].lane[l], 1000 + 15 - l);
    // Reversed addresses over 16 banks are conflict free; uniform
    // addresses would serialize (covered in scratchpad tests).
}

TEST(Pmu, AccumulateWriteIsReadModifyWrite)
{
    PmuCfg cfg = copyCfg(16);
    cfg.write.accumulate = true;
    cfg.write.accumOp = FuOp::kIAdd;
    PmuHarness h(cfg);
    Vec v;
    for (uint32_t l = 0; l < 16; ++l) {
        v.lane[l] = l;
        v.setValid(l);
    }
    h.ins[0]->push(v);
    std::vector<Vec> got;
    for (int c = 0; c < 300 && got.empty(); ++c) {
        h.step();
        while (h.out->canPop()) {
            got.push_back(h.out->front());
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 1u);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(got[0].lane[l], l); // 0 + l
}

TEST(Pmu, AppendModePacksValidWords)
{
    PmuCfg cfg = copyCfg(16);
    cfg.write.appendMode = true;
    cfg.write.addrStages.clear();
    // Two sparse vectors of 8 valid words each -> 16 packed words.
    CounterCfg two;
    two.max = 32;
    two.vectorized = true;
    cfg.write.chain.ctrs = {two};
    PmuHarness h(cfg);
    for (int i = 0; i < 2; ++i) {
        Vec v;
        for (uint32_t l = 0; l < 16; l += 2) {
            v.lane[l] = i * 8 + l / 2;
            v.setValid(l);
        }
        h.ins[0]->push(v);
    }
    std::vector<Word> got;
    for (int c = 0; c < 300 && got.size() < 16; ++c) {
        h.step();
        while (h.out->canPop()) {
            const Vec &v = h.out->front();
            for (uint32_t l = 0; l < 16; ++l)
                got.push_back(v.lane[l]);
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 16u);
    for (uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(got[i], i) << "append must pack densely";
}

TEST(Pmu, NBufferRotationIsolatesGenerations)
{
    PmuCfg cfg = copyCfg(16, /*nbuf=*/2);
    cfg.write.swapEvery = 1;
    cfg.read.swapEvery = 1;
    PmuHarness h(cfg, /*writerTokens=*/2);
    // Generation 0 then generation 1.
    for (int g = 0; g < 2; ++g) {
        Vec v;
        for (uint32_t l = 0; l < 16; ++l) {
            v.lane[l] = g * 100 + l;
            v.setValid(l);
        }
        h.ins[0]->push(v);
    }
    std::vector<Vec> got;
    for (int c = 0; c < 400 && got.size() < 2; ++c) {
        h.step();
        while (h.out->canPop()) {
            got.push_back(h.out->front());
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].lane[5], 5u);
    EXPECT_EQ(got[1].lane[5], 105u);
}

TEST(Pmu, ClearEveryZeroesBufferAtRunStart)
{
    PmuCfg cfg = copyCfg(16);
    cfg.write.accumulate = true;
    cfg.write.accumOp = FuOp::kIAdd;
    cfg.write.clearEvery = 1;
    PmuHarness h(cfg, /*writerTokens=*/2);
    // Two write runs; each should start from zero.
    for (int g = 0; g < 2; ++g) {
        Vec v;
        for (uint32_t l = 0; l < 16; ++l) {
            v.lane[l] = 7;
            v.setValid(l);
        }
        h.ins[0]->push(v);
    }
    std::vector<Vec> got;
    for (int c = 0; c < 600 && got.size() < 2; ++c) {
        h.step();
        while (h.out->canPop()) {
            got.push_back(h.out->front());
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1].lane[0], 7u) << "second run must start from zero";
}

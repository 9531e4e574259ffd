/** @file PCU pipeline: SIMD stages, reduction tree, accumulators,
 *  FlatMap coalescing, token gating, and backpressure stalls. */

#include <gtest/gtest.h>

#include <memory>

#include "sim/pcu.hpp"

using namespace plast;

namespace
{

struct PcuHarness
{
    ArchParams params;
    std::unique_ptr<PcuSim> pcu;
    std::vector<std::unique_ptr<VectorStream>> vecOuts, vecIns;
    std::vector<std::unique_ptr<ScalarStream>> scalOuts;
    std::unique_ptr<ControlStream> token, done;
    Cycles now = 0;

    explicit PcuHarness(PcuCfg cfg, uint32_t outCapacity = 64,
                        Engine engine = Engine::kOracle)
    {
        cfg.used = true;
        cfg.vecOuts.resize(params.pcu.vectorOuts);
        cfg.scalOuts.resize(params.pcu.scalarOuts);
        pcu = std::make_unique<PcuSim>(params, 0, cfg, engine);
        (void)outCapacity;
    }

    VectorStream *
    bindVecOut(int port, uint32_t capacity = 64)
    {
        vecOuts.push_back(
            std::make_unique<VectorStream>("vo", 1, capacity));
        pcu->ports.vecOut[port].sinks.push_back(vecOuts.back().get());
        return vecOuts.back().get();
    }

    VectorStream *
    bindVecIn(int port)
    {
        vecIns.push_back(std::make_unique<VectorStream>("vi", 1, 64));
        pcu->ports.vecIn[port].stream = vecIns.back().get();
        return vecIns.back().get();
    }

    ScalarStream *
    bindScalOut(int port)
    {
        scalOuts.push_back(std::make_unique<ScalarStream>("so", 1, 64));
        pcu->ports.scalOut[port].sinks.push_back(scalOuts.back().get());
        return scalOuts.back().get();
    }

    void
    step(int cycles = 1)
    {
        for (int i = 0; i < cycles; ++i) {
            pcu->evaluate(now);
            for (auto &s : vecOuts)
                s->commit(now);
            for (auto &s : vecIns)
                s->commit(now);
            for (auto &s : scalOuts)
                s->commit(now);
            if (token)
                token->commit(now);
            if (done)
                done->commit(now);
            ++now;
        }
    }
};

/** cfg: one vectorized counter 0..n, one map stage on the counter. */
PcuCfg
mapSquareCfg(int64_t n)
{
    PcuCfg cfg;
    CounterCfg cc;
    cc.max = n;
    cc.vectorized = true;
    cfg.chain.ctrs = {cc};
    StageCfg st;
    st.op = FuOp::kIMul;
    st.a = Operand::ctr(0);
    st.b = Operand::ctr(0);
    st.dstReg = 0;
    cfg.stages = {st};
    return cfg;
}

} // namespace

TEST(Pcu, MapEmitsOneVectorPerWavefront)
{
    PcuCfg cfg = mapSquareCfg(40);
    cfg.vecOuts.resize(3);
    cfg.vecOuts[0].enabled = true;
    cfg.vecOuts[0].srcReg = 0;
    cfg.vecOuts[0].cond = EmitCond::everyWavefront();
    PcuHarness h(cfg);
    VectorStream *out = h.bindVecOut(0);

    std::vector<Word> got;
    for (int c = 0; c < 200 && got.size() < 40; ++c) {
        h.step();
        while (out->canPop()) {
            const Vec &v = out->front();
            for (uint32_t l = 0; l < 16; ++l) {
                if (v.valid(l))
                    got.push_back(v.lane[l]);
            }
            out->pop();
        }
    }
    ASSERT_EQ(got.size(), 40u);
    for (uint32_t i = 0; i < 40; ++i)
        EXPECT_EQ(got[i], i * i);
    EXPECT_EQ(h.pcu->stats().wavefronts, 3u); // ceil(40/16)
    EXPECT_EQ(h.pcu->stats().runs, 1u);
}

TEST(Pcu, ReduceTreePlusAccumulatorComputesSum)
{
    // fold over i<100 of i -> 4950, emitted once at chain end.
    PcuCfg cfg;
    CounterCfg cc;
    cc.max = 100;
    cc.vectorized = true;
    cfg.chain.ctrs = {cc};
    StageCfg move;
    move.op = FuOp::kNop;
    move.a = Operand::ctr(0);
    move.dstReg = 0;
    cfg.stages = {move};
    for (uint32_t dist = 1; dist < 16; dist *= 2) {
        StageCfg red;
        red.kind = StageKind::kReduceStep;
        red.op = FuOp::kIAdd;
        red.a = Operand::reg(0);
        red.dstReg = 0;
        red.reduceDist = static_cast<uint8_t>(dist);
        cfg.stages.push_back(red);
    }
    StageCfg acc;
    acc.kind = StageKind::kAccum;
    acc.op = FuOp::kIAdd;
    acc.a = Operand::reg(0);
    acc.dstReg = 1;
    acc.accLevel = 0;
    cfg.stages.push_back(acc);
    ASSERT_EQ(cfg.stages.size(), 6u); // exactly the paper's PCU depth
    cfg.scalOuts.resize(5);
    cfg.scalOuts[0].enabled = true;
    cfg.scalOuts[0].srcReg = 1;
    cfg.scalOuts[0].cond = EmitCond::lastAtLevel(0);

    PcuHarness h(cfg);
    ScalarStream *out = h.bindScalOut(0);
    h.step(100);
    ASSERT_TRUE(out->canPop());
    EXPECT_EQ(wordToInt(out->front()), 4950);
    out->pop();
    EXPECT_FALSE(out->canPop()) << "fold must emit exactly once";
}

TEST(Pcu, MaskedTailLanesDoNotContribute)
{
    // Sum over 17 elements: the second wavefront has one valid lane.
    PcuCfg cfg;
    CounterCfg cc;
    cc.max = 17;
    cc.vectorized = true;
    cfg.chain.ctrs = {cc};
    StageCfg one;
    one.op = FuOp::kNop;
    one.a = Operand::immInt(1);
    one.dstReg = 0;
    cfg.stages = {one};
    for (uint32_t dist = 1; dist < 16; dist *= 2) {
        StageCfg red;
        red.kind = StageKind::kReduceStep;
        red.op = FuOp::kIAdd;
        red.a = Operand::reg(0);
        red.dstReg = 0;
        red.reduceDist = static_cast<uint8_t>(dist);
        cfg.stages.push_back(red);
    }
    StageCfg acc;
    acc.kind = StageKind::kAccum;
    acc.op = FuOp::kIAdd;
    acc.a = Operand::reg(0);
    acc.dstReg = 1;
    cfg.stages.push_back(acc);
    cfg.scalOuts.resize(5);
    cfg.scalOuts[0].enabled = true;
    cfg.scalOuts[0].srcReg = 1;
    cfg.scalOuts[0].cond = EmitCond::lastAtLevel(0);

    PcuHarness h(cfg);
    ScalarStream *out = h.bindScalOut(0);
    h.step(100);
    ASSERT_TRUE(out->canPop());
    EXPECT_EQ(wordToInt(out->front()), 17);
}

TEST(Pcu, FlatMapCoalescesValidWordsAndCounts)
{
    // Keep multiples of 3 among 0..47 -> 16 values (exactly one vector).
    PcuCfg cfg;
    CounterCfg cc;
    cc.max = 48;
    cc.vectorized = true;
    cfg.chain.ctrs = {cc};
    StageCfg pred;
    pred.op = FuOp::kIEq;
    pred.a = Operand::none();
    pred.kind = StageKind::kMap;
    // pred = (i % 3 == 0)
    StageCfg mod;
    mod.op = FuOp::kIMod;
    mod.a = Operand::ctr(0);
    mod.b = Operand::immInt(3);
    mod.dstReg = 0;
    StageCfg eq;
    eq.op = FuOp::kIEq;
    eq.a = Operand::reg(0);
    eq.b = Operand::immInt(0);
    eq.dstReg = 1;
    StageCfg mask;
    mask.op = FuOp::kNop;
    mask.a = Operand::reg(1);
    mask.dstReg = 2;
    mask.setsMask = true;
    StageCfg val;
    val.op = FuOp::kNop;
    val.a = Operand::ctr(0);
    val.dstReg = 3;
    cfg.stages = {mod, eq, mask, val};
    cfg.vecOuts.resize(3);
    cfg.vecOuts[0].enabled = true;
    cfg.vecOuts[0].srcReg = 3;
    cfg.vecOuts[0].cond = EmitCond::everyWavefront();
    cfg.vecOuts[0].coalesce = true;
    cfg.scalOuts.resize(5);
    cfg.scalOuts[0].enabled = true;
    cfg.scalOuts[0].countOfVecOut = 0;

    PcuHarness h(cfg);
    VectorStream *out = h.bindVecOut(0);
    ScalarStream *cnt = h.bindScalOut(0);
    h.step(100);

    std::vector<Word> got;
    while (out->canPop()) {
        const Vec &v = out->front();
        for (uint32_t l = 0; l < 16; ++l) {
            if (v.valid(l))
                got.push_back(v.lane[l]);
        }
        out->pop();
    }
    ASSERT_EQ(got.size(), 16u);
    for (uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(got[i], i * 3);
    ASSERT_TRUE(cnt->canPop());
    EXPECT_EQ(cnt->front(), 16u);
}

TEST(Pcu, TokenGatingRunsExactlyOncePerToken)
{
    PcuCfg cfg = mapSquareCfg(16);
    cfg.ctrl.tokenIns = {0};
    cfg.ctrl.doneOuts = {0};
    PcuHarness h(cfg);
    h.token = std::make_unique<ControlStream>("tok", 1, 8);
    h.done = std::make_unique<ControlStream>("done", 1, 8);
    h.pcu->ports.ctlIn[0].stream = h.token.get();
    h.pcu->ports.ctlOut[0].sinks.push_back(h.done.get());

    h.step(20);
    EXPECT_EQ(h.pcu->stats().runs, 0u) << "must not self-start";
    h.token->preload(Token{});
    h.token->preload(Token{});
    h.step(60);
    EXPECT_EQ(h.pcu->stats().runs, 2u);
    EXPECT_EQ(h.done->available(), 2u);
}

TEST(Pcu, StallsWhenOutputBlocked)
{
    PcuCfg cfg = mapSquareCfg(160);
    cfg.vecOuts.resize(3);
    cfg.vecOuts[0].enabled = true;
    cfg.vecOuts[0].srcReg = 0;
    cfg.vecOuts[0].cond = EmitCond::everyWavefront();
    PcuHarness h(cfg);
    VectorStream *out = h.bindVecOut(0, /*capacity=*/2);
    h.step(50); // no one pops
    EXPECT_GT(h.pcu->ledger(h.now).of(CycleClass::kOutputBackpressure),
              10u);
    // Drain and confirm everything still arrives in order.
    std::vector<Word> got;
    for (int c = 0; c < 400 && got.size() < 160; ++c) {
        while (out->canPop()) {
            const Vec &v = out->front();
            for (uint32_t l = 0; l < 16; ++l) {
                if (v.valid(l))
                    got.push_back(v.lane[l]);
            }
            out->pop();
        }
        h.step();
    }
    ASSERT_EQ(got.size(), 160u);
    for (uint32_t i = 0; i < 160; ++i)
        EXPECT_EQ(got[i], i * i);
}

TEST(Pcu, VectorInputConsumedPerWavefront)
{
    // out = in * 2 over 32 elements (2 vectors).
    PcuCfg cfg;
    CounterCfg cc;
    cc.max = 32;
    cc.vectorized = true;
    cfg.chain.ctrs = {cc};
    StageCfg st;
    st.op = FuOp::kIAdd;
    st.a = Operand::vectorIn(0);
    st.b = Operand::vectorIn(0);
    st.dstReg = 0;
    cfg.stages = {st};
    cfg.vecOuts.resize(3);
    cfg.vecOuts[0].enabled = true;
    cfg.vecOuts[0].srcReg = 0;
    cfg.vecOuts[0].cond = EmitCond::everyWavefront();
    PcuHarness h(cfg);
    VectorStream *in = h.bindVecIn(0);
    VectorStream *out = h.bindVecOut(0);

    h.step(10);
    EXPECT_GT(h.pcu->ledger(h.now).of(CycleClass::kInputStarved), 0u)
        << "waits for data";
    for (int i = 0; i < 2; ++i) {
        Vec v;
        for (uint32_t l = 0; l < 16; ++l) {
            v.lane[l] = i * 16 + l;
            v.setValid(l);
        }
        in->push(v);
        h.step(2);
    }
    h.step(30);
    std::vector<Word> got;
    while (out->canPop()) {
        const Vec &v = out->front();
        for (uint32_t l = 0; l < 16; ++l)
            got.push_back(v.lane[l]);
        out->pop();
    }
    ASSERT_EQ(got.size(), 32u);
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(got[i], 2 * i);
}

namespace
{

/** Full reduce tree + accumulator summing i over i < n, emitted once. */
PcuCfg
reduceSumCfg(int64_t n)
{
    PcuCfg cfg;
    CounterCfg cc;
    cc.max = n;
    cc.vectorized = true;
    cfg.chain.ctrs = {cc};
    StageCfg move;
    move.op = FuOp::kNop;
    move.a = Operand::ctr(0);
    move.dstReg = 0;
    cfg.stages = {move};
    for (uint32_t dist = 1; dist < 16; dist *= 2) {
        StageCfg red;
        red.kind = StageKind::kReduceStep;
        red.op = FuOp::kIAdd;
        red.a = Operand::reg(0);
        red.dstReg = 0;
        red.reduceDist = static_cast<uint8_t>(dist);
        cfg.stages.push_back(red);
    }
    StageCfg acc;
    acc.kind = StageKind::kAccum;
    acc.op = FuOp::kIAdd;
    acc.a = Operand::reg(0);
    acc.dstReg = 1;
    acc.accLevel = 0;
    cfg.stages.push_back(acc);
    cfg.scalOuts.resize(5);
    cfg.scalOuts[0].enabled = true;
    cfg.scalOuts[0].srcReg = 1;
    cfg.scalOuts[0].cond = EmitCond::lastAtLevel(0);
    return cfg;
}

} // namespace

/** Cross-lane reduce trees at non-power-of-two active lane counts, in
 *  both engines' datapaths: tail wavefronts with 1..15 valid lanes must
 *  not pull stale or pool-recycled junk into the tree. */
class ReduceTails
    : public ::testing::TestWithParam<std::tuple<Engine, int64_t>>
{
};

TEST_P(ReduceTails, PartialWavefrontSumsExactly)
{
    auto [engine, n] = GetParam();
    PcuHarness h(reduceSumCfg(n), 64, engine);
    ScalarStream *out = h.bindScalOut(0);
    h.step(static_cast<int>(n) + 50);
    ASSERT_TRUE(out->canPop());
    EXPECT_EQ(wordToInt(out->front()), n * (n - 1) / 2);
    out->pop();
    EXPECT_FALSE(out->canPop()) << "fold must emit exactly once";
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, ReduceTails,
    ::testing::Combine(::testing::Values(Engine::kOracle,
                                         Engine::kProduction),
                       ::testing::Values<int64_t>(1, 3, 7, 15, 17, 23,
                                                  31, 33, 100)),
    [](const ::testing::TestParamInfo<std::tuple<Engine, int64_t>>
           &info) {
        return std::string(datapathName(std::get<0>(info.param))) + "_" +
               std::to_string(std::get<1>(info.param));
    });

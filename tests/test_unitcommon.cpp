/** @file Shared unit machinery: token gating, scalar referencing,
 *  dynamic bound resolution, scalar datapath evaluation, pop cadence. */

#include <gtest/gtest.h>

#include "sim/unitcommon.hpp"

using namespace plast;

TEST(UnitCommon, SelfStartFiresExactlyOnce)
{
    UnitPorts ports;
    ports.size(0, 0, 2, 0, 0, 2);
    ControlCfg ctrl; // no token inputs
    EXPECT_TRUE(tokensReady(ctrl, ports, /*selfStarted=*/false));
    EXPECT_FALSE(tokensReady(ctrl, ports, /*selfStarted=*/true));
}

TEST(UnitCommon, AllTokenInputsRequired)
{
    UnitPorts ports;
    ports.size(0, 0, 2, 0, 0, 2);
    ControlStream a("a", 1, 4), b("b", 1, 4);
    ports.ctlIn[0].stream = &a;
    ports.ctlIn[1].stream = &b;
    ControlCfg ctrl;
    ctrl.tokenIns = {0, 1};
    a.preload(Token{});
    EXPECT_FALSE(tokensReady(ctrl, ports, false));
    b.preload(Token{});
    EXPECT_TRUE(tokensReady(ctrl, ports, false));
    consumeTokens(ctrl, ports);
    EXPECT_FALSE(tokensReady(ctrl, ports, false));
}

TEST(UnitCommon, ResolveBoundsReadsAndScalesScalars)
{
    UnitPorts ports;
    ports.size(2, 0, 0, 0, 0, 0);
    ports.scalIn[0].isConst = true;
    ports.scalIn[0].constVal = intToWord(5);
    ChainCfg chain;
    CounterCfg fixed;
    fixed.max = 10;
    CounterCfg dyn;
    dyn.maxFromScalarIn = 0;
    dyn.boundScale = 8;
    chain.ctrs = {fixed, dyn};
    auto bounds = resolveBounds(chain, ports);
    ASSERT_EQ(bounds.size(), 2u);
    EXPECT_EQ(bounds[0], 10);
    EXPECT_EQ(bounds[1], 40); // 5 * 8
}

TEST(UnitCommon, StageRefsFindAllOperands)
{
    std::vector<StageCfg> stages(2);
    stages[0].a = Operand::scalarIn(3);
    stages[0].b = Operand::vectorIn(1);
    stages[1].a = Operand::scalarIn(3); // duplicate
    stages[1].c = Operand::vectorIn(0);
    std::vector<uint8_t> scalars, vectors;
    stageRefs(stages, scalars, vectors);
    EXPECT_EQ(scalars, (std::vector<uint8_t>{3}));
    EXPECT_EQ(vectors, (std::vector<uint8_t>{0, 1}));
}

TEST(UnitCommon, ScalarDatapathEvaluatesAffineChains)
{
    // addr = (c0 * 7 + c1) using IMA, reading one scalar input.
    UnitPorts ports;
    ports.size(1, 0, 0, 0, 0, 0);
    ports.scalIn[0].isConst = true;
    ports.scalIn[0].constVal = intToWord(100);
    std::vector<StageCfg> stages(2);
    stages[0].op = FuOp::kIMA;
    stages[0].a = Operand::ctr(0);
    stages[0].b = Operand::immInt(7);
    stages[0].c = Operand::ctr(1);
    stages[0].dstReg = 0;
    stages[1].op = FuOp::kIAdd;
    stages[1].a = Operand::reg(0);
    stages[1].b = Operand::scalarIn(0);
    stages[1].dstReg = 1;

    Wavefront wf;
    wf.ctr[0] = 3;
    wf.ctr[1] = 2;
    wf.mask = 1;
    ScalarRegs regs;
    Word r = evalScalarStages(stages, 1, wf, ports, regs);
    EXPECT_EQ(wordToInt(r), 3 * 7 + 2 + 100);
}

TEST(UnitCommon, PopEveryDelaysScalarConsumption)
{
    ScalarStream s("s", 1, 8);
    ScalarInPort port;
    port.stream = &s;
    port.popEvery = 3;
    s.preload(11);
    s.preload(22);
    // Three pops consume one element.
    port.pop();
    port.pop();
    EXPECT_EQ(port.front(), 11u);
    port.pop();
    Cycles now = 0;
    s.commit(now);
    EXPECT_EQ(port.front(), 22u);
}

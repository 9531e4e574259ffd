/** @file Fabric-level integration with hand-written configurations:
 *  channel wiring, host constants, argOut capture, control boxes
 *  driving token-gated units, and deadlock-free termination. */

#include <gtest/gtest.h>

#include "arch/disasm.hpp"
#include "runtime/bottleneck.hpp"
#include "sim/fabric.hpp"

using namespace plast;

namespace
{

/**
 * Minimal hand-mapped design: a root box runs a 3-iteration loop; per
 * iteration one PCU squares the exported loop index (a host constant
 * provides an offset) and sends it to argOut 0.
 *
 *   box0: for t in [0,3): export t; start pcu0
 *   pcu0: out = (t + C)^2, scalar out -> host
 */
FabricConfig
handDesign(Word offset)
{
    FabricConfig fab;
    fab.params = ArchParams::plasticineFinal();
    fab.pcus.resize(fab.params.numPcus());
    fab.pmus.resize(fab.params.numPmus());
    fab.ags.resize(fab.params.numAgs);
    fab.boxes.resize(fab.params.switchCols() * fab.params.switchRows());

    PcuCfg &pcu = fab.pcus[0];
    pcu.used = true;
    pcu.name = "square";
    // Empty chain: one wavefront per run.
    StageCfg add;
    add.op = FuOp::kIAdd;
    add.a = Operand::scalarIn(0); // exported t
    add.b = Operand::scalarIn(1); // host constant
    add.dstReg = 0;
    StageCfg mul;
    mul.op = FuOp::kIMul;
    mul.a = Operand::reg(0);
    mul.b = Operand::reg(0);
    mul.dstReg = 1;
    pcu.stages = {add, mul};
    pcu.scalOuts.resize(fab.params.pcu.scalarOuts);
    pcu.scalOuts[0].enabled = true;
    pcu.scalOuts[0].srcReg = 1;
    pcu.scalOuts[0].cond = EmitCond::lastAtLevel(0);
    pcu.vecOuts.resize(fab.params.pcu.vectorOuts);
    pcu.ctrl.tokenIns = {0};
    pcu.ctrl.doneOuts = {0};

    ControlBoxCfg &box = fab.boxes[0];
    box.used = true;
    box.name = "loop";
    box.scheme = CtrlScheme::kSequential;
    CounterCfg t;
    t.max = 3;
    box.chain.ctrs = {t};
    box.depth = 1;
    box.childStartOuts = {0};
    box.childDoneIns = {0};
    box.exports = {{0, 0}};
    fab.rootBox = 0;
    fab.hostArgOuts = 1;

    UnitRef pcuRef{UnitClass::kPcu, 0};
    UnitRef boxRef{UnitClass::kBox, 0};
    // start token, done token, export scalar, result scalar.
    fab.channels.push_back(
        {NetKind::kControl, {boxRef, 0}, {pcuRef, 0}, 3, 0, 16, 1});
    fab.channels.push_back(
        {NetKind::kControl, {pcuRef, 0}, {boxRef, 0}, 3, 0, 16, 1});
    fab.channels.push_back(
        {NetKind::kScalar, {boxRef, 0}, {pcuRef, 0}, 3, 0, 16, 1});
    fab.channels.push_back(
        {NetKind::kScalar, {pcuRef, 0}, {UnitRef{UnitClass::kHost, 0}, 0},
         3, 0, 16, 1});
    fab.constants.push_back({{pcuRef, 1}, offset});
    return fab;
}

} // namespace

TEST(Fabric, HandMappedLoopProducesAllIterations)
{
    Fabric fab(handDesign(intToWord(10)));
    RunResult rr = fab.runChecked(100000);
    ASSERT_TRUE(rr.status.ok()) << rr.status.message();
    EXPECT_GT(rr.cycles, 0u);
    const auto &out = fab.argOut(0);
    ASSERT_EQ(out.size(), 3u); // one result per iteration
    EXPECT_EQ(wordToInt(out[0]), 100); // (0+10)^2
    EXPECT_EQ(wordToInt(out[1]), 121);
    EXPECT_EQ(wordToInt(out[2]), 144);
}

TEST(Fabric, HostConstantsAreSticky)
{
    // The constant is read on every run without being consumed.
    Fabric fab(handDesign(intToWord(2)));
    ASSERT_TRUE(fab.runChecked(100000).status.ok());
    const auto &out = fab.argOut(0);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(wordToInt(out[2]), 16); // (2+2)^2
}

TEST(Fabric, StatsReportRunsAndCycles)
{
    Fabric fab(handDesign(0));
    ASSERT_TRUE(fab.runChecked(100000).status.ok());
    StatSet stats;
    fab.dumpStats(stats);
    EXPECT_EQ(stats.get("pcu00.runs"), 3u);
    EXPECT_GT(stats.get("cycles"), 0u);
}

TEST(FabricDeath, DeadlockIsDiagnosedNotHung)
{
    // The PCU waits for a token that never arrives (no channel).
    FabricConfig cfg = handDesign(0);
    cfg.channels.erase(cfg.channels.begin()); // drop the start token
    Fabric f(cfg);
    RunResult rr = f.runChecked(10'000'000);
    EXPECT_EQ(rr.status.code(), StatusCode::kDeadlock);
    EXPECT_EQ(rr.status.message(),
              strfmt("fabric deadlock: empty active set at cycle %llu",
                     static_cast<unsigned long long>(f.now())));
    // The loop box is mid-iteration; its exported index waits in front
    // of the PCU that was never started.
    DeadlockReport rep = analyzeDeadlock(f);
    ASSERT_EQ(rep.waiting.size(), 1u) << rep.render();
    EXPECT_EQ(rep.waiting[0].ref, (UnitRef{UnitClass::kBox, 0}));
    ASSERT_EQ(rep.held.size(), 1u) << rep.render();
    EXPECT_EQ(rep.held[0].name, "scalar#1:box0.0->pcu0.0");
    EXPECT_EQ(rep.held[0].tokens, 1u);
}

TEST(Disasm, RendersEveryConfiguredStructure)
{
    FabricConfig fab = handDesign(intToWord(5));
    std::string text = disasmFabric(fab);
    EXPECT_NE(text.find("square"), std::string::npos);
    EXPECT_NE(text.find("imul"), std::string::npos);
    EXPECT_NE(text.find("loop"), std::string::npos);
    EXPECT_NE(text.find("sequential"), std::string::npos);
    EXPECT_NE(text.find("export"), std::string::npos);
    EXPECT_NE(text.find("channels:"), std::string::npos);
    EXPECT_NE(text.find("scalar: box0.0 -> pcu0.0"), std::string::npos);
}

TEST(Disasm, MappedBenchmarkMentionsEveryUsedUnit)
{
    setVerbose(false);
    // Use the hand design (fast) plus spot-check name presence.
    FabricConfig fab = handDesign(0);
    std::string text = disasmFabric(fab);
    // Exactly one PCU and one box section.
    EXPECT_EQ(text.find("pcu0"), text.rfind("pcu0  "));
    EXPECT_NE(text.find("box0"), std::string::npos);
}

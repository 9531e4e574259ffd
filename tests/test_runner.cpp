/** @file Host runtime: DRAM staging, result readback, the run
 *  record's two comparisons, reference instrumentation,
 *  architecture-parameter generality (lane counts, channel counts),
 *  and the PCU shift network. */

#include <gtest/gtest.h>

#include <memory>

#include "apps/apps.hpp"
#include "pir/builder.hpp"
#include "runtime/record.hpp"
#include "runtime/runner.hpp"
#include "sim/pcu.hpp"

using namespace plast;
using namespace plast::pir;

namespace
{

Program
scaleProgram(int64_t n, MemId &in, MemId &out)
{
    Builder b("scale");
    in = b.dram("in", n);
    out = b.dram("out", n);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId i = b.ctr("i", 0, n, 1, true);
    ExprId v = b.fmul(b.streamRef(0), b.immF(3.0f));
    b.compute("x3", root, {i}, {StreamIn{in, b.ctrE(i)}}, {},
              {Builder::streamOut(out, b.ctrE(i), v)});
    return b.finish(root);
}

} // namespace

TEST(Runner, StagesInputsAndReadsBackOutputs)
{
    setVerbose(false);
    MemId in, out;
    Runner r(scaleProgram(256, in, out));
    auto &buf = r.dram(in);
    for (int k = 0; k < 256; ++k)
        buf[k] = floatToWord(static_cast<float>(k));
    r.runValidated();
    std::vector<Word> got = r.readDram(out);
    for (int k = 0; k < 256; ++k)
        EXPECT_FLOAT_EQ(wordToFloat(got[k]), 3.0f * k);
}

/** The two comparisons every oracle uses name the first difference,
 *  and the whole-run rule forgives only the host's work:
 *  `<unit>.cycles.stepped` and `trace.*`. */
TEST(RunRecord, ComparisonsNameTheFirstDifference)
{
    setVerbose(false);
    MemId in, out;
    Program prog = scaleProgram(64, in, out);
    auto run = [&](SimOptions opts) {
        Runner r(prog, ArchParams::plasticineFinal(), opts);
        auto &buf = r.dram(in);
        for (size_t k = 0; k < buf.size(); ++k)
            buf[k] = floatToWord(static_cast<float>(k));
        Runner::Result res = r.run();
        r.readBack(res);
        return res;
    };
    SimOptions dense;
    dense.engine = Engine::kOracle;
    const Runner::Result oracle = run(dense), fast = run(SimOptions{});
    auto whole = [&](const Runner::Result &want, const Runner::Result &got) {
        return checkWholeRun(prog, want, got, "a vs b").message();
    };
    EXPECT_EQ(whole(oracle, fast), "");

    // A differing word prints as bits, signed integer and float.
    Runner::Result got = fast;
    got.dram[out][5] ^= 1;
    EXPECT_EQ(checkOutputs(prog, oracle, got, "a vs b").message(),
              whole(oracle, got));
    EXPECT_EQ(whole(oracle, got),
              "a vs b dram 'out'[5]: 0x41700000 (i32 1097859072, f32 15) "
              "vs 0x41700001 (i32 1097859073, f32 15.000001)");
    got.dram[out][5] = 0x00007fe2;
    EXPECT_EQ(whole(oracle, got),
              "a vs b dram 'out'[5]: 0x41700000 (i32 1097859072, f32 15) "
              "vs 0x00007fe2 (i32 32738, f32 4.58757091e-41)");

    got = fast;
    got.stats.add("mem.bursts");
    EXPECT_NE(whole(oracle, got).find("counter mem.bursts: "),
              std::string::npos)
        << whole(oracle, got);

    // Ledgers compare class for class: a cycle moved from one class
    // to another is a difference, a different step count is not.
    const std::string active = ".cycles.active";
    std::string unit;
    for (const auto &[key, v] : fast.stats.all()) {
        if (unit.empty() && v >= 1 && key.ends_with(active))
            unit = key.substr(0, key.size() - active.size());
    }
    ASSERT_FALSE(unit.empty());
    got = fast;
    got.stats.add(unit + ".cycles.stepped", 5);
    got.stats.set("trace.events", 9);
    EXPECT_EQ(whole(fast, got), "");
    got.stats.set(unit + active, fast.stats.get(unit + active) - 1);
    got.stats.add(unit + ".cycles.idle");
    EXPECT_NE(whole(fast, got).find("counter " + unit + active),
              std::string::npos)
        << whole(fast, got);
}

TEST(Runner, ReferenceCountsMatchAnalytics)
{
    setVerbose(false);
    MemId in, out;
    Runner r(scaleProgram(256, in, out));
    const auto &c = r.referenceCounts();
    EXPECT_EQ(c.aluOps, 256u);
    EXPECT_EQ(c.dramWordsRead, 256u);
    EXPECT_EQ(c.dramWordsWritten, 256u);
}

TEST(Runner, RunsAtEightLanes)
{
    // The whole stack is lane-parameterized (Table 3 sweeps 4..32).
    setVerbose(false);
    ArchParams params;
    params.pcu.lanes = 8;
    params.pmu.banks = 8;
    MemId in, out;
    Runner r(scaleProgram(128, in, out), params);
    auto &buf = r.dram(in);
    for (int k = 0; k < 128; ++k)
        buf[k] = floatToWord(static_cast<float>(k));
    r.runValidated(); // bit-exact at 8 lanes too
    SUCCEED();
}

TEST(Runner, RunsAtThirtyTwoLanes)
{
    setVerbose(false);
    ArchParams params;
    params.pcu.lanes = 32;
    params.pmu.banks = 32;
    MemId in, out;
    Runner r(scaleProgram(128, in, out), params);
    auto &buf = r.dram(in);
    for (int k = 0; k < 128; ++k)
        buf[k] = floatToWord(static_cast<float>(k));
    r.runValidated();
    SUCCEED();
}

TEST(Runner, FewerChannelsIsSlower)
{
    setVerbose(false);
    auto cyclesWith = [](uint32_t channels) {
        ArchParams params;
        params.dram.channels = channels;
        apps::AppInstance app =
            apps::makeInnerProduct(apps::Scale::kTiny, 4);
        Runner r(app.prog, params);
        app.load(r);
        return r.run().cycles;
    };
    Cycles c1 = cyclesWith(1), c4 = cyclesWith(4);
    EXPECT_GT(c1, 2 * c4) << "streaming must scale with channels";
}

TEST(ShiftNetwork, SlidesValuesAcrossLanes)
{
    // Direct PCU config using the kShift cross-lane network (§3.1,
    // used for stencils): out[l] = in[l] + in[l-1].
    ArchParams params;
    PcuCfg cfg;
    cfg.used = true;
    CounterCfg cc;
    cc.max = 16;
    cc.vectorized = true;
    cfg.chain.ctrs = {cc};
    StageCfg ld;
    ld.op = FuOp::kNop;
    ld.a = Operand::ctr(0);
    ld.dstReg = 0;
    StageCfg sh;
    sh.kind = StageKind::kShift;
    sh.a = Operand::reg(0);
    sh.shiftAmt = 1;
    sh.dstReg = 1;
    StageCfg add;
    add.op = FuOp::kIAdd;
    add.a = Operand::reg(0);
    add.b = Operand::reg(1);
    add.dstReg = 2;
    cfg.stages = {ld, sh, add};
    cfg.vecOuts.resize(params.pcu.vectorOuts);
    cfg.vecOuts[0].enabled = true;
    cfg.vecOuts[0].srcReg = 2;
    cfg.vecOuts[0].cond = EmitCond::everyWavefront();
    cfg.scalOuts.resize(params.pcu.scalarOuts);

    PcuSim pcu(params, 0, cfg);
    VectorStream out("o", 1, 8);
    pcu.ports.vecOut[0].sinks.push_back(&out);
    Cycles now = 0;
    while (!out.canPop() && now < 100) {
        pcu.step(now);
        out.commit(now);
        ++now;
    }
    ASSERT_TRUE(out.canPop());
    const Vec &v = out.front();
    EXPECT_EQ(v.lane[0], 0u);      // 0 + (shifted-in 0)
    EXPECT_EQ(v.lane[1], 1u + 0u); // 1 + 0
    EXPECT_EQ(v.lane[7], 7u + 6u);
    EXPECT_EQ(v.lane[15], 15u + 14u);
}

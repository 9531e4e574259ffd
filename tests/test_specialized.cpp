/** @file Specialized datapath plans (sim/execplan.hpp): the production
 *  engine validates against the reference evaluator, plus
 *  plan-construction invariants (dead-port elision, kernel coverage,
 *  PMU address lowering and its port coverage). Whole-run parity with
 *  the oracle on every benchmark is CycleParity (test_scheduler.cpp). */

#include <gtest/gtest.h>

#include <cstdint>

#include "apps/apps.hpp"
#include "base/rng.hpp"
#include "runtime/runner.hpp"
#include "sim/execplan.hpp"
#include "sim/fabric.hpp"
#include "sim/unitcommon.hpp"
#include "sim/wavefront.hpp"

using namespace plast;

/** The specialized fabric still validates bit-exactly against the
 *  golden reference evaluator end to end. */
TEST(Specialized, ValidatedAgainstReference)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeInnerProduct(apps::Scale::kTiny);
    Runner r(std::move(app.prog), ArchParams::plasticineFinal());
    app.load(r);
    Runner::Result res = r.runValidated();
    EXPECT_GT(res.cycles, 0u);
}

// --------------------------------------------------------------------
// Plan-construction invariants
// --------------------------------------------------------------------

namespace
{

PcuCfg
twoStageCfg()
{
    const ArchParams params = ArchParams::plasticineFinal();
    PcuCfg cfg;
    cfg.used = true;
    cfg.name = "planned";
    StageCfg mul;
    mul.kind = StageKind::kMap;
    mul.op = FuOp::kFMul;
    mul.a = Operand::vectorIn(0);
    mul.b = Operand::vectorIn(1);
    mul.dstReg = 2;
    StageCfg red;
    red.kind = StageKind::kReduceStep;
    red.op = FuOp::kFAdd;
    red.a = Operand::reg(2);
    red.dstReg = 2;
    red.reduceDist = 1;
    cfg.stages = {mul, red};
    cfg.vecOuts.resize(params.pcu.vectorOuts);
    cfg.scalOuts.resize(params.pcu.scalarOuts);
    cfg.scalOuts[0].enabled = true;
    cfg.scalOuts[0].srcReg = 2;
    return cfg;
}

} // namespace

TEST(ExecPlan, ResolvesStagesAndElidesDeadPorts)
{
    PcuExecPlan plan = buildPcuPlan(twoStageCfg());

    ASSERT_EQ(plan.stages.size(), 2u);
    EXPECT_EQ(plan.stages[0].kind, StageKind::kMap);
    EXPECT_NE(plan.stages[0].kernel, nullptr)
        << "kFMul gets a monomorphic kernel";
    EXPECT_EQ(plan.stages[0].arity, 2u);
    EXPECT_EQ(plan.stages[1].kind, StageKind::kReduceStep);
    EXPECT_EQ(plan.stages[1].identity, floatToWord(0.0f))
        << "kFAdd reduction identity";

    // Only reg 2 is ever touched -> pool recycling zeroes one register.
    EXPECT_EQ(plan.touchedRegs, 1u << 2);

    // One live scalar out, zero live vector outs, no coalescing: the
    // retire loops skip every disabled port without testing it.
    EXPECT_TRUE(plan.liveVecOuts.empty());
    ASSERT_EQ(plan.liveScalOuts.size(), 1u);
    EXPECT_EQ(plan.liveScalOuts[0], 0u);
    EXPECT_TRUE(plan.countScalOuts.empty());
    EXPECT_FALSE(plan.anyCoalesce);
}

TEST(ExecPlan, TranscendentalsFallBackToGenericExec)
{
    // Plans never inline libm-backed ops; those stages run through the
    // dynamic dispatcher so every engine shares one libm call site.
    EXPECT_EQ(mapKernelFor(FuOp::kFExp), nullptr);
    EXPECT_EQ(mapKernelFor(FuOp::kFLog), nullptr);
    EXPECT_EQ(mapKernelFor(FuOp::kFSqrt), nullptr);
    EXPECT_EQ(mapKernelFor(FuOp::kFRecip), nullptr);
    // Everything else is monomorphic.
    EXPECT_NE(mapKernelFor(FuOp::kIAdd), nullptr);
    EXPECT_NE(mapKernelFor(FuOp::kFMA), nullptr);
    EXPECT_NE(mapKernelFor(FuOp::kMux), nullptr);
}

// --------------------------------------------------------------------
// PMU address plans
// --------------------------------------------------------------------

namespace
{

StageCfg
mapStage(FuOp op, Operand a, Operand b, Operand c, uint8_t dst)
{
    StageCfg st;
    st.kind = StageKind::kMap;
    st.op = op;
    st.a = a;
    st.b = b;
    st.c = c;
    st.dstReg = dst;
    return st;
}

/** A plain banked read port running `stages`, result in `reg`. */
PmuPortPlan
readPortPlan(std::vector<StageCfg> stages, uint8_t reg)
{
    PmuPortCfg port;
    port.enabled = true;
    port.vecLinear = true;
    port.addrStages = std::move(stages);
    port.addrReg = reg;
    ScratchCfg scratch;
    scratch.sizeWords = 1024;
    return buildPmuPortPlan(port, /*isWrite=*/false, scratch, 16, 16);
}

/** The address portAccessPlanned computes: slots once per run, then
 *  base + sum(coeff * counter) modulo 2^32. */
Word
plannedAddr(const PmuAddrPlan &plan, const Wavefront &wf,
            const std::vector<Word> &scalars)
{
    std::vector<Word> consts;
    plan.evalSlots(consts, [&](Word idx) { return scalars.at(idx); });
    Word addr = consts[plan.baseSlot];
    for (const auto &[level, slot] : plan.terms)
        addr += consts[slot] * static_cast<Word>(wf.ctr[level]);
    return addr;
}

/** The interpreter's address for the same program and inputs. */
Word
interpAddr(const std::vector<StageCfg> &stages, uint8_t reg,
           const Wavefront &wf, const std::vector<Word> &scalars)
{
    UnitPorts ports;
    ports.scalIn.resize(scalars.size());
    for (size_t i = 0; i < scalars.size(); ++i) {
        ports.scalIn[i].isConst = true;
        ports.scalIn[i].constVal = scalars[i];
    }
    ScalarRegs regs;
    return evalScalarStages(stages, reg, wf, ports, regs);
}

Wavefront
counters(std::initializer_list<int64_t> vals)
{
    Wavefront wf;
    size_t i = 0;
    for (int64_t v : vals)
        wf.ctr[i++] = v;
    return wf;
}

} // namespace

/** ima(c0, #k, c1) = c0*k + c1: coefficient k on c0, 1 on c1. */
TEST(ExecPlan, MultiplyAddByImmediateIsAffine)
{
    std::vector<StageCfg> st = {
        mapStage(FuOp::kIMA, Operand::ctr(0), Operand::immInt(324),
                 Operand::ctr(1), 0)};
    PmuPortPlan plan = readPortPlan(st, 0);
    ASSERT_TRUE(plan.fastAccess);
    ASSERT_TRUE(plan.addr.affine);
    ASSERT_EQ(plan.addr.terms.size(), 2u);
    EXPECT_EQ(plan.addr.terms[0].first, 0u);
    EXPECT_EQ(plan.addr.terms[1].first, 1u);

    for (Wavefront wf : {counters({0, 0}), counters({7, 5}),
                         counters({0x7fffffff, -1})})
        EXPECT_EQ(plannedAddr(plan.addr, wf, {}),
                  interpAddr(st, 0, wf, {}));
    EXPECT_EQ(plannedAddr(plan.addr, counters({7, 5}), {}), 7u * 324 + 5);
}

/** ima(si, #k, c0) = si*k + c0: the scalar-in product lands in a
 *  run-constant slot re-evaluated once per run. */
TEST(ExecPlan, MultiplyAddOfScalarInputIsRunConstant)
{
    std::vector<StageCfg> st = {
        mapStage(FuOp::kIMA, Operand::scalarIn(1), Operand::immInt(-3),
                 Operand::ctr(0), 2)};
    PmuPortPlan plan = readPortPlan(st, 2);
    ASSERT_TRUE(plan.fastAccess);
    ASSERT_EQ(plan.addr.terms.size(), 1u);
    EXPECT_EQ(plan.addr.terms[0].first, 0u);
    EXPECT_NE(plan.addr.baseSlot, 0u) << "si*k is a computed slot";

    for (Word si : {0u, 5u, 0x80000000u, 0xffffffffu}) {
        Wavefront wf = counters({11});
        EXPECT_EQ(plannedAddr(plan.addr, wf, {0, si}),
                  interpAddr(st, 2, wf, {0, si}))
            << "si=" << si;
    }

    // A scalar-in multiplicand of a counter becomes a coefficient slot.
    std::vector<StageCfg> st2 = {
        mapStage(FuOp::kIMA, Operand::ctr(0), Operand::scalarIn(0),
                 Operand::ctr(1), 0)};
    PmuPortPlan plan2 = readPortPlan(st2, 0);
    ASSERT_TRUE(plan2.fastAccess);
    Wavefront wf = counters({9, 4});
    EXPECT_EQ(plannedAddr(plan2.addr, wf, {1000}), 9u * 1000 + 4);
}

/** c0*c1 + x is quadratic in the counters: interpreted. */
TEST(ExecPlan, MultiplyAddOfTwoCountersStaysInterpreted)
{
    PmuPortPlan plan = readPortPlan(
        {mapStage(FuOp::kIMA, Operand::ctr(0), Operand::ctr(1),
                  Operand::immInt(4), 0)},
        0);
    EXPECT_FALSE(plan.fastAccess);
    EXPECT_FALSE(plan.addr.affine);
}

/** Seeded differential over random scalar address programs: whenever
 *  the plan claims a port, its address equals the interpreter's on
 *  wrap-edge counters and scalar inputs. */
TEST(ExecPlan, PlannedAddressMatchesInterpreter)
{
    static const FuOp ops[] = {FuOp::kNop, FuOp::kIAdd, FuOp::kISub,
                               FuOp::kIMul, FuOp::kShl, FuOp::kIMA,
                               FuOp::kShr}; // kShr: the non-affine op
    static const Word imms[] = {0, 1, 3, 16, 324, 0x7fffffffu,
                                0x80000000u, 0xffffffffu};
    static const int64_t ctrs[] = {0, 1, 15, 0x7fffffff, -1,
                                   int64_t{1} << 32, INT32_MIN};
    Rng rng(2017);
    auto operand = [&]() -> Operand {
        switch (rng.nextBounded(6)) {
          case 0: return Operand::none();
          case 1: return Operand::immWord(imms[rng.nextBounded(8)]);
          case 2:
            return Operand::scalarIn(
                static_cast<uint8_t>(rng.nextBounded(2)));
          case 3:
          case 4:
            return Operand::ctr(static_cast<uint8_t>(rng.nextBounded(3)));
          default:
            return Operand::reg(static_cast<uint8_t>(rng.nextBounded(4)));
        }
    };

    int planned = 0, plannedIma = 0, interpreted = 0;
    for (int prog = 0; prog < 3000; ++prog) {
        std::vector<StageCfg> st;
        bool hasIma = false;
        const int n = 1 + static_cast<int>(rng.nextBounded(5));
        for (int i = 0; i < n; ++i) {
            FuOp op = ops[rng.nextBounded(7)];
            hasIma |= op == FuOp::kIMA;
            st.push_back(mapStage(op, operand(), operand(), operand(),
                                  static_cast<uint8_t>(rng.nextBounded(4))));
        }
        const uint8_t reg = st.back().dstReg;
        PmuPortPlan plan = readPortPlan(st, reg);
        if (!plan.fastAccess) {
            ++interpreted;
            continue;
        }
        ++planned;
        plannedIma += hasIma;
        for (int trial = 0; trial < 8; ++trial) {
            Wavefront wf = counters({ctrs[rng.nextBounded(7)],
                                     ctrs[rng.nextBounded(7)],
                                     ctrs[rng.nextBounded(7)]});
            std::vector<Word> scalars = {imms[rng.nextBounded(8)],
                                         static_cast<Word>(rng.next())};
            ASSERT_EQ(plannedAddr(plan.addr, wf, scalars),
                      interpAddr(st, reg, wf, scalars))
                << "program " << prog << " trial " << trial;
        }
    }
    // The sweep must exercise both outcomes and the multiply-add rule.
    EXPECT_GT(planned, 1000);
    EXPECT_GT(plannedIma, 400);
    EXPECT_GT(interpreted, 500);
}

/** Every enabled PMU port of the 13 benchmarks takes the planned path
 *  unless its shape is one the plan deliberately leaves to the
 *  interpreter: FIFO banking, FlatMap append, per-lane vector
 *  addresses, or a broadcast write. */
TEST(ExecPlan, PlansEveryScalarAddressedPortOfTheBenchmarks)
{
    setVerbose(false);
    for (const apps::AppSpec &spec : apps::allApps()) {
        apps::AppInstance app = spec.make(apps::Scale::kTiny);
        Runner r(std::move(app.prog));
        app.load(r);
        ASSERT_TRUE(r.tryCompile().ok()) << spec.name;
        const FabricConfig &fab = r.sharedMapResult()->fabric;
        const ArchParams &p = fab.params;
        int uncovered = 0;
        for (const PmuCfg &pmu : fab.pmus) {
            if (!pmu.used)
                continue;
            auto check = [&](const PmuPortCfg &port, bool isWrite,
                             const char *which) {
                if (!port.enabled ||
                    pmu.scratch.mode == BankingMode::kFifo ||
                    port.appendMode || port.addrVecIn >= 0 ||
                    (isWrite && port.broadcast))
                    return;
                PmuPortPlan plan = buildPmuPortPlan(
                    port, isWrite, pmu.scratch, p.pmu.banks, p.pcu.lanes);
                if (!plan.fastAccess) {
                    ++uncovered;
                    ADD_FAILURE() << spec.name << " " << pmu.name << "."
                                  << which << " is interpreted";
                }
            };
            check(pmu.write, true, "write");
            check(pmu.write2, true, "write2");
            check(pmu.read, false, "read");
        }
        EXPECT_EQ(uncovered, 0) << spec.name;
    }
}

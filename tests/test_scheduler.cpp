/** @file Activity-driven scheduler: bit-exact cycle parity of the
 *  production default (activity + specialized) against the dense +
 *  interpreter oracle on every benchmark, the same stop cycle at every
 *  max-cycle cap, traffic-counter parity,
 *  AGs sleeping on coalescer capacity, fast-forward behavior, and
 *  exact deadlock detection (empty active set) on a stalled credit
 *  loop. */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "resilience/fault.hpp"
#include "sim/fabric.hpp"

using namespace plast;

namespace
{

/** The reference oracle: dense tick over the interpreter. */
SimOptions
denseOpts()
{
    SimOptions o;
    o.mode = SimOptions::Mode::kDense;
    o.simMode = SimMode::kInterp;
    return o;
}

struct ModeResult
{
    Cycles cycles = 0;
    std::vector<std::deque<Word>> argOuts;
    std::vector<std::vector<Word>> dramBufs;
    StatSet stats;
};

ModeResult
harvest(const Runner &r, const Runner::Result &res)
{
    ModeResult out;
    out.cycles = res.cycles;
    out.argOuts = res.argOuts;
    out.stats = res.stats;
    for (size_t m = 0; m < r.program().mems.size(); ++m) {
        if (r.program().mems[m].kind == pir::MemKind::kDram)
            out.dramBufs.push_back(
                r.readDram(static_cast<pir::MemId>(m)));
    }
    return out;
}

ModeResult
runApp(const apps::AppSpec &spec, SimOptions opts)
{
    setVerbose(false);
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    Runner r(std::move(app.prog), ArchParams::plasticineFinal(), opts);
    app.load(r);
    Runner::Result res = r.run();
    return harvest(r, res);
}

} // namespace

/** The production default (activity scheduling, specialized engine)
 *  and the dense + interpreter oracle must agree on the completion
 *  cycle, every argOut stream, every DRAM buffer, and the traffic
 *  counters (stream pushes/pops, memory bursts, DRAM timing) — i.e. the
 *  fast paths change only the host's work per simulated cycle, never
 *  the simulated machine. */
class CycleParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CycleParity, ActivityModeMatchesDenseBitExactly)
{
    for (const auto &spec : apps::allApps()) {
        if (spec.name != GetParam())
            continue;

        ModeResult dense = runApp(spec, denseOpts());
        ModeResult activity = runApp(spec, SimOptions{});

        EXPECT_EQ(dense.cycles, activity.cycles) << "completion cycle";
        EXPECT_EQ(dense.stats.get("cycles"), activity.stats.get("cycles"))
            << "post-drain cycle count";

        ASSERT_EQ(dense.argOuts.size(), activity.argOuts.size());
        for (size_t s = 0; s < dense.argOuts.size(); ++s)
            EXPECT_EQ(dense.argOuts[s], activity.argOuts[s])
                << "argOut slot " << s;

        ASSERT_EQ(dense.dramBufs.size(), activity.dramBufs.size());
        for (size_t m = 0; m < dense.dramBufs.size(); ++m)
            EXPECT_EQ(dense.dramBufs[m], activity.dramBufs[m])
                << "DRAM buffer " << m;

        // Architectural activity counters agree; only host-side idle
        // accounting (starve/idle cycles of sleeping units) may differ.
        for (const auto &[name, value] : dense.stats.all()) {
            if (name.rfind("stream.", 0) == 0 ||
                name.rfind("net.", 0) == 0 ||
                name.rfind("mem.", 0) == 0 ||
                name.rfind("dram", 0) == 0) {
                EXPECT_EQ(value, activity.stats.get(name)) << name;
            }
        }
        return;
    }
    FAIL() << "unknown benchmark";
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CycleParity,
    ::testing::Values("InnerProduct", "OuterProduct", "Black-Scholes",
                      "TPC-H Query 6", "GEMM", "GDA", "LogReg", "SGD",
                      "Kmeans", "CNN", "SMDV", "PageRank", "BFS"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

namespace
{

/** A fabric for `map` with the runner's staged DRAM image loaded. */
std::unique_ptr<Fabric>
loadedFabric(const Runner &r, const compiler::MapResult &map,
             SimOptions opts)
{
    auto f = std::make_unique<Fabric>(map.fabric, opts);
    const pir::Program &prog = r.program();
    Addr extent = 0;
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind == pir::MemKind::kDram)
            extent = std::max(extent, map.dramBase[m] +
                                          prog.mems[m].sizeWords * 4 + 64);
    }
    f->dram().reserve(extent);
    for (const auto &[mid, data] : r.hostBuffers()) {
        for (size_t w = 0; w < data.size(); ++w)
            f->dram().writeWord(map.dramBase[mid] + w * 4, data[w]);
    }
    return f;
}

std::vector<Word>
dramImage(Fabric &f, const Runner &r, const compiler::MapResult &map)
{
    std::vector<Word> out;
    const pir::Program &prog = r.program();
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind != pir::MemKind::kDram)
            continue;
        for (uint32_t w = 0; w < prog.mems[m].sizeWords; ++w)
            out.push_back(f.dram().readWord(map.dramBase[m] + w * 4));
    }
    return out;
}

} // namespace

/** Both schedulers stop on the same cycle: the dense + interpreter
 *  oracle and the production default (activity + specialized), built
 *  from one compile, advance with runChecked(cap) for cap = 1, 2, 3, …
 *  and must report the same status and clock at every stop — a clock
 *  jump that reaches the cap stops there instead of simulating it —
 *  then the same completion cycle, argOuts and DRAM image. */
class RunLoopParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RunLoopParity, EveryCapStopsBothSchedulersOnTheSameCycle)
{
    setVerbose(false);
    const apps::AppSpec *spec = nullptr;
    for (const auto &s : apps::allApps()) {
        if (s.name == GetParam())
            spec = &s;
    }
    ASSERT_NE(spec, nullptr) << "unknown benchmark";
    apps::AppInstance app = spec->make(apps::Scale::kTiny);
    Runner r(app.prog);
    app.load(r);
    ASSERT_TRUE(r.tryCompile().ok());
    const compiler::MapResult &map = r.mapResult();

    auto dense = loadedFabric(r, map, denseOpts());
    auto activity = loadedFabric(r, map, SimOptions{});
    RunResult d, a;
    for (Cycles cap = 1;; ++cap) {
        d = dense->runChecked(cap);
        a = activity->runChecked(cap);
        ASSERT_EQ(d.status.code(), a.status.code()) << "cap " << cap;
        ASSERT_EQ(dense->now(), activity->now()) << "cap " << cap;
        if (d.status.ok())
            break;
        ASSERT_EQ(d.status.code(), StatusCode::kMaxCycles) << "cap " << cap;
        ASSERT_EQ(dense->now(), cap);
    }
    EXPECT_EQ(d.cycles, a.cycles) << "completion cycle";
    for (uint32_t s = 0; s < r.program().numArgOuts; ++s)
        EXPECT_EQ(dense->argOut(s), activity->argOut(s)) << "argOut " << s;
    EXPECT_EQ(dramImage(*dense, r, map), dramImage(*activity, r, map));
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, RunLoopParity,
    ::testing::Values("InnerProduct", "OuterProduct", "Black-Scholes",
                      "TPC-H Query 6", "GEMM", "GDA", "LogReg", "SGD",
                      "Kmeans", "CNN", "SMDV", "PageRank", "BFS"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

/** A cap the clock has already reached simulates nothing in either
 *  mode, and a lower cap never moves the clock back. */
TEST(RunLoop, ReachedCapSimulatesNothing)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeInnerProduct(apps::Scale::kTiny);
    Runner r(app.prog);
    app.load(r);
    ASSERT_TRUE(r.tryCompile().ok());
    for (const SimOptions &opts : {denseOpts(), SimOptions{}}) {
        auto f = loadedFabric(r, r.mapResult(), opts);
        EXPECT_EQ(f->runChecked(100).status.code(), StatusCode::kMaxCycles);
        EXPECT_EQ(f->runChecked(100).status.code(), StatusCode::kMaxCycles);
        EXPECT_EQ(f->runChecked(50).status.code(), StatusCode::kMaxCycles);
        EXPECT_EQ(f->now(), 100u);
    }
}

namespace
{

/**
 * A stalled credit loop: two PCUs each gated on a token only the other
 * can produce, with zero initial tokens on both channels. The root box
 * starts pcu0 but pcu0 also needs a credit from pcu1, which in turn
 * waits on pcu0's done — a circular wait that can never resolve.
 */
FabricConfig
creditLoopDesign()
{
    FabricConfig fab;
    fab.params = ArchParams::plasticineFinal();
    fab.pcus.resize(fab.params.numPcus());
    fab.pmus.resize(fab.params.numPmus());
    fab.ags.resize(fab.params.numAgs);
    fab.boxes.resize(fab.params.switchCols() * fab.params.switchRows());

    StageCfg nop;
    nop.op = FuOp::kIAdd;
    nop.a = Operand::reg(0);
    nop.b = Operand::reg(0);
    nop.dstReg = 0;

    PcuCfg &pcu0 = fab.pcus[0];
    pcu0.used = true;
    pcu0.name = "stage_a";
    pcu0.stages = {nop};
    pcu0.scalOuts.resize(fab.params.pcu.scalarOuts);
    pcu0.vecOuts.resize(fab.params.pcu.vectorOuts);
    pcu0.ctrl.tokenIns = {0, 1}; // box start AND credit from pcu1
    pcu0.ctrl.doneOuts = {0, 1}; // to box, and start for pcu1

    PcuCfg &pcu1 = fab.pcus[1];
    pcu1.used = true;
    pcu1.name = "stage_b";
    pcu1.stages = {nop};
    pcu1.scalOuts.resize(fab.params.pcu.scalarOuts);
    pcu1.vecOuts.resize(fab.params.pcu.vectorOuts);
    pcu1.ctrl.tokenIns = {0}; // started by pcu0's done
    pcu1.ctrl.doneOuts = {0}; // credit back to pcu0

    ControlBoxCfg &box = fab.boxes[0];
    box.used = true;
    box.name = "root";
    box.scheme = CtrlScheme::kSequential;
    CounterCfg t;
    t.max = 2;
    box.chain.ctrs = {t};
    box.depth = 1;
    box.childStartOuts = {0};
    box.childDoneIns = {0};
    fab.rootBox = 0;
    fab.hostArgOuts = 0;

    UnitRef p0{UnitClass::kPcu, 0};
    UnitRef p1{UnitClass::kPcu, 1};
    UnitRef bx{UnitClass::kBox, 0};
    fab.channels.push_back(
        {NetKind::kControl, {bx, 0}, {p0, 0}, 3, 0, 16, 1});
    fab.channels.push_back( // credit channel: zero initial tokens
        {NetKind::kControl, {p1, 0}, {p0, 1}, 3, 0, 16, 1});
    fab.channels.push_back(
        {NetKind::kControl, {p0, 0}, {bx, 0}, 3, 0, 16, 1});
    fab.channels.push_back(
        {NetKind::kControl, {p0, 1}, {p1, 0}, 3, 0, 16, 1});
    return fab;
}

} // namespace

/** The empty active set diagnoses the circular wait exactly — and the
 *  diagnostic pinpoints the wait: the root box is mid-iteration and
 *  the start token sits undelivered in front of the gated PCU. */
TEST(SchedulerDeath, CreditLoopDeadlockIsDiagnosedExactly)
{
    EXPECT_EXIT(
        {
            Fabric f(creditLoopDesign());
            f.run(10'000'000);
        },
        ::testing::ExitedWithCode(1), "deadlock");
    EXPECT_EXIT(
        {
            Fabric f(creditLoopDesign());
            f.run(10'000'000);
        },
        ::testing::ExitedWithCode(1),
        "box0.0->pcu0.0 holds 1 poppable element");
}

/** Activity mode needs no no-progress window: the deadlock fires the
 *  cycle the active set empties, long before the dense window expires. */
TEST(SchedulerDeath, DeadlockFiresWithoutWaitingForWindow)
{
    EXPECT_EXIT(
        {
            Fabric f(creditLoopDesign());
            f.run(10'000'000);
            // unreachable: run() must have fataled by now
        },
        ::testing::ExitedWithCode(1), "empty active set at cycle [0-9]");
}

/** Dense mode keeps the windowed scan, now constructor-configurable. */
TEST(SchedulerDeath, DenseWindowIsConfigurable)
{
    EXPECT_EXIT(
        {
            SimOptions opts = denseOpts();
            opts.deadlockWindow = 200;
            Fabric f(creditLoopDesign(), opts);
            f.run(10'000'000);
        },
        ::testing::ExitedWithCode(1), "no progress for 200 cycles");
}

/** Stream statistics are live (not the dead counters they replace):
 *  a run must report pushes, pops and a nonzero peak occupancy on the
 *  control network that carried the start/done tokens. */
TEST(SchedulerStats, StreamCountersAreWired)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeInnerProduct(apps::Scale::kTiny);
    Runner r(std::move(app.prog));
    app.load(r);
    Runner::Result res = r.run();
    EXPECT_GT(res.stats.get("net.control.pushes"), 0u);
    EXPECT_EQ(res.stats.get("net.control.pushes"),
              res.stats.get("net.control.pops"))
        << "all tokens consumed";
    EXPECT_GT(res.stats.get("net.vector.pushes"), 0u);
    EXPECT_GT(res.stats.sumPrefix("stream."), 0u);
}

// ---- AGs sleeping on coalescer capacity -------------------------------

namespace
{

/** Two outstanding bursts and two coalescing-cache lines per unit:
 *  dense and sparse AGs alike are refused for capacity most cycles.
 *  DRAM ECC turns injected double-bit responses into retries. */
ArchParams
pressuredParams()
{
    ArchParams p = ArchParams::plasticineFinal();
    p.coalescerMaxOutstanding = 2;
    p.coalescerCacheLines = 2;
    p.dram.ecc = true;
    return p;
}

const apps::AppSpec &
specByName(const std::string &name)
{
    for (const auto &spec : apps::allApps()) {
        if (spec.name == name)
            return spec;
    }
    panic("no such app '%s'", name.c_str());
}

struct PressuredRun
{
    ModeResult result;
    uint64_t dramRetries = 0;
    /** AG cycles classified dramWait: evaluated, and in total. */
    uint64_t agDramWaitSteps = 0, agDramWait = 0;
};

/** Run under pressuredParams(), checked against the reference
 *  evaluator, optionally with DRAM faults injected. */
PressuredRun
runPressured(const std::string &name, SimOptions opts,
             const resilience::FaultPlan *faults = nullptr)
{
    setVerbose(false);
    ArchParams params = pressuredParams();
    apps::AppInstance app = specByName(name).make(apps::Scale::kTiny);
    Runner r(std::move(app.prog), params, opts);
    app.load(r);
    std::optional<resilience::FaultInjector> inj;
    if (faults) {
        inj.emplace(*faults, params.dram.ecc);
        r.setFaultInjector(&*inj);
    }
    Runner::Result res;
    Status st = r.tryRunValidated(res);
    EXPECT_TRUE(st.ok()) << name << ": " << st.message();
    PressuredRun out;
    out.result = harvest(r, res);
    out.dramRetries = r.fabric()->mem().stats().dramRetries;
    for (uint32_t i = 0; i < params.numAgs; ++i) {
        if (const AgSim *ag = r.fabric()->agPtr(i)) {
            const CycleAcct &a = ag->acct();
            out.agDramWaitSteps +=
                a.by[static_cast<size_t>(CycleClass::kDramWait)];
            out.agDramWait += a.blocked(CycleClass::kDramWait);
        }
    }
    return out;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/**
 * Per-unit ledger parity. Dense ticking classifies every cycle; the
 * activity scheduler attributes a sleep to the class that began it
 * when the unit next evaluates, and leaves the run's final sleep
 * unattributed (`cycles.asleep`). So every `cycles.<class>` key must
 * match exactly, except that one class per unit may fall short by
 * exactly that tail.
 */
void
expectSameLedgers(const StatSet &oracle, const StatSet &fast)
{
    std::map<std::string, std::array<int64_t, kNumCycleClasses>> gap;
    for (size_t c = 0; c < kNumCycleClasses; ++c) {
        std::string key = std::string(".cycles.") +
                          cycleClassName(static_cast<CycleClass>(c));
        for (const auto &[name, value] : oracle.all()) {
            if (endsWith(name, key))
                gap[name.substr(0, name.size() - key.size())][c] =
                    static_cast<int64_t>(value) -
                    static_cast<int64_t>(fast.get(name));
        }
    }
    ASSERT_FALSE(gap.empty()) << "no cycle ledger compared";
    for (const auto &[unit, d] : gap) {
        int64_t tail =
            static_cast<int64_t>(fast.get(unit + ".cycles.asleep")) -
            static_cast<int64_t>(oracle.get(unit + ".cycles.asleep"));
        int64_t sum = 0;
        int differing = 0;
        for (int64_t v : d) {
            EXPECT_GE(v, 0) << unit;
            sum += v;
            differing += v != 0;
        }
        EXPECT_LE(differing, 1) << unit << ": more than one class moved";
        EXPECT_EQ(sum, tail) << unit << ": ledger gap is not the tail";
    }
}

/** Everything the simulated machine did, compared bit for bit: the
 *  completion cycle, argOuts, DRAM, every counter and the per-unit
 *  cycle ledgers. Only host-side step and sleep tallies may differ. */
void
expectSameMachine(const ModeResult &oracle, const ModeResult &fast)
{
    EXPECT_EQ(oracle.cycles, fast.cycles) << "completion cycle";
    EXPECT_EQ(oracle.argOuts, fast.argOuts) << "argOuts";
    EXPECT_EQ(oracle.dramBufs, fast.dramBufs) << "DRAM buffers";
    expectSameLedgers(oracle.stats, fast.stats);
    for (const auto &[name, value] : oracle.stats.all()) {
        if (name.find(".cycles.") == std::string::npos) {
            EXPECT_EQ(value, fast.stats.get(name)) << name;
        }
    }
}

uint64_t
agStepped(const StatSet &stats)
{
    uint64_t n = 0;
    for (const auto &[name, value] : stats.all()) {
        if (name.rfind("ag", 0) == 0 && endsWith(name, ".cycles.stepped"))
            n += value;
    }
    return n;
}

} // namespace

/** Capacity refusals park the AG on its coalescing unit until a burst
 *  there retires, instead of re-polling every cycle. Parameter: an
 *  app with dense (InnerProduct) or sparse (SMDV) AGs. */
class CapacityCycleParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CapacityCycleParity, SleepingAgsMatchDenseInterpBitExactly)
{
    PressuredRun oracle = runPressured(GetParam(), denseOpts());
    PressuredRun fast = runPressured(GetParam(), SimOptions{});
    expectSameMachine(oracle.result, fast.result);

    // Under dense ticking every AG steps every cycle; asleep AGs cost
    // nothing, so capacity waits must not be polled.
    uint64_t dense = agStepped(oracle.result.stats);
    uint64_t activity = agStepped(fast.result.stats);
    ASSERT_GT(dense, 0u);
    EXPECT_LE(2 * activity, dense)
        << "AG steps: activity " << activity << " vs dense " << dense;
    // Sharper: most DRAM-wait cycles pass asleep. A polling AG
    // evaluates nearly every one of them.
    ASSERT_GT(fast.agDramWait, 0u);
    EXPECT_EQ(fast.agDramWait, oracle.agDramWait);
    EXPECT_LE(2 * fast.agDramWaitSteps, fast.agDramWait)
        << "AG dramWait cycles evaluated: " << fast.agDramWaitSteps
        << " of " << fast.agDramWait;
}

/** A mid-run snapshot holds live slab slots: it must restore into a
 *  fresh fabric and re-save to the identical tape, and rolling a
 *  running fabric back onto it (AGs parked, parked lists cleared by
 *  the restore) must finish bit-exactly. */
TEST_P(CapacityCycleParity, MidRunCheckpointRoundTrips)
{
    setVerbose(false);
    Cycles total = runPressured(GetParam(), SimOptions{}).result.cycles;
    ASSERT_GT(total, 0u);

    SimOptions so;
    so.checkpointEvery = std::max<Cycles>(1, total / 8);
    so.keepCheckpoints = 16;
    apps::AppInstance app = specByName(GetParam()).make(apps::Scale::kTiny);
    Runner r(app.prog, pressuredParams(), so);
    app.load(r);
    Runner::Result out;
    ASSERT_TRUE(r.tryRun(out).ok());
    Fabric *orig = r.mutableFabric();

    // The first snapshot past the midpoint that has bursts in flight.
    std::optional<FabricCheckpoint> cp;
    for (const FabricCheckpoint &c : orig->autoCheckpoints()) {
        if (c.cycle < total / 2)
            continue;
        Fabric probe(r.mapResult().fabric, so);
        ASSERT_TRUE(probe.restoreCheckpoint(c).ok());
        if (!probe.mem().quiescent()) {
            cp = c;
            break;
        }
    }
    ASSERT_TRUE(cp.has_value()) << "no mid-run snapshot with live bursts";

    Fabric fresh(r.mapResult().fabric, so);
    ASSERT_TRUE(fresh.restoreCheckpoint(*cp).ok());
    EXPECT_EQ(fresh.saveCheckpoint().tape, cp->tape)
        << "the slab must re-save to the tape it was restored from";

    for (int i = 0; i < 64; ++i)
        fresh.step();
    ASSERT_TRUE(fresh.restoreCheckpoint(*cp).ok());
    RunResult rr = fresh.runChecked();
    ASSERT_TRUE(rr.status.ok()) << rr.status.message();
    EXPECT_EQ(fresh.now(), orig->now());
    for (uint32_t s = 0; s < app.prog.numArgOuts; ++s)
        EXPECT_EQ(fresh.argOut(s), orig->argOut(s)) << "argOut " << s;
    ASSERT_EQ(fresh.dram().sizeBytes(), orig->dram().sizeBytes());
    for (Addr a = 0; a < orig->dram().sizeBytes(); a += sizeof(Word))
        ASSERT_EQ(fresh.dram().readWord(a), orig->dram().readWord(a))
            << "DRAM word at byte " << a;
}

/** Detected-uncorrectable DRAM responses re-queue their burst in its
 *  slab slot while AGs sit parked on the full coalescing unit. The
 *  result must still match the oracle under the same faults, and the
 *  reference evaluator. */
TEST_P(CapacityCycleParity, DramRetryReissuesThroughTheSlab)
{
    resilience::FaultPlan plan;
    for (uint32_t i = 0; i < 3; ++i) {
        resilience::FaultEvent e;
        e.kind = resilience::FaultKind::kDramResponse;
        e.cycle = 1 + 40 * i;
        e.bits = 2; // detected, uncorrectable: retry
        e.bit = 7 + i;
        plan.events.push_back(e);
    }
    PressuredRun oracle = runPressured(GetParam(), denseOpts(), &plan);
    PressuredRun fast = runPressured(GetParam(), SimOptions{}, &plan);
    expectSameMachine(oracle.result, fast.result);
    EXPECT_EQ(oracle.dramRetries, fast.dramRetries);
    EXPECT_GE(fast.dramRetries, 1u);
}

INSTANTIATE_TEST_SUITE_P(DenseAndSparseAgs, CapacityCycleParity,
                         ::testing::Values("InnerProduct", "SMDV"));

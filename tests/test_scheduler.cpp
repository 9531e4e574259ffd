/** @file Activity-driven scheduler: whole-run parity of the
 *  production default (activity + specialized) against the dense +
 *  interpreter oracle on every benchmark, the same stop cycle at every
 *  max-cycle cap, AGs sleeping on coalescer capacity and on waiting
 *  lists (hard-faulted ones too), checkpoints, epoch rows and the
 *  deadlock post-mortem's inputs on dense mode's cycles despite
 *  fast-forward, and exact deadlock detection (empty active set) on a
 *  stalled credit loop. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "resilience/fault.hpp"
#include "runtime/bottleneck.hpp"
#include "runtime/record.hpp"
#include "sim/fabric.hpp"
#include "sim/scheduler.hpp"
#include "sim/stream.hpp"

using namespace plast;

namespace
{

/** The reference oracle: dense tick over the interpreter. */
SimOptions
denseOpts()
{
    SimOptions o;
    o.engine = Engine::kOracle;
    return o;
}

const apps::AppSpec &
specByName(const std::string &name)
{
    const apps::AppSpec *spec = apps::findApp(name);
    panic_if(!spec, "no such app '%s'", name.c_str());
    return *spec;
}

/** A tiny-scale run of app `name` under `opts`, DRAM read back. */
Runner::Result
runApp(const std::string &name, SimOptions opts)
{
    setVerbose(false);
    apps::AppInstance app = specByName(name).make(apps::Scale::kTiny);
    Runner r(std::move(app.prog), ArchParams::plasticineFinal(), opts);
    app.load(r);
    Runner::Result res = r.run();
    r.readBack(res);
    return res;
}

/** The dense + interpreter oracle and a production-default run of app
 *  `name` simulated the same machine (checkWholeRun). */
void
expectSameRun(const std::string &name, const Runner::Result &oracle,
              const Runner::Result &fast)
{
    Status st = checkWholeRun(specByName(name).make(apps::Scale::kTiny).prog,
                              oracle, fast,
                              "dense+interp vs activity+specialized");
    EXPECT_TRUE(st.ok()) << name << ": " << st.message();
}

} // namespace

/** The production default (activity scheduling, specialized engine)
 *  and the dense + interpreter oracle simulate the same machine:
 *  completion and post-drain cycles, every argOut stream and DRAM
 *  buffer, every counter and the per-unit cycle ledgers — the fast
 *  paths change only the host's work per simulated cycle. */
class CycleParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CycleParity, ActivityModeMatchesDenseBitExactly)
{
    expectSameRun(GetParam(), runApp(GetParam(), denseOpts()),
                  runApp(GetParam(), SimOptions{}));
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
    loadDram(*f, r.program(), map, r.hostBuffers());
    return f;
}

} // namespace

/** Both schedulers stop on the same cycle: the dense + interpreter
 *  oracle and the production default (activity + specialized), built
 *  from one compile, advance with runChecked(cap) for cap = 1, 2, 3, …
 *  and must report the same status and clock at every stop — a clock
 *  jump that reaches the cap stops there instead of simulating it —
 *  then simulate the same machine (checkWholeRun). The root completes
 *  on the step that reaches some cap, and that call completes the run
 *  rather than stopping at the cap. */
class RunLoopParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RunLoopParity, EveryCapStopsBothSchedulersOnTheSameCycle)
{
    setVerbose(false);
    apps::AppInstance app = specByName(GetParam()).make(apps::Scale::kTiny);
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
        if (d.status.ok()) {
            ASSERT_EQ(d.cycles, cap);
            break;
        }
        ASSERT_EQ(d.status.code(), StatusCode::kMaxCycles) << "cap " << cap;
        ASSERT_EQ(dense->now(), cap);
    }
    auto record = [&](const Fabric &f, const RunResult &rr) {
        RunRecord rec = captureRun(f, app.prog, rr.cycles);
        readBackDram(f, app.prog, map, rec);
        return rec;
    };
    Status st = checkWholeRun(app.prog, record(*dense, d),
                              record(*activity, a),
                              "dense+interp vs activity+specialized");
    EXPECT_TRUE(st.ok()) << st.message();
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

/** The start token undelivered in front of the gated PCU: the one
 *  stream analyzeDeadlock finds holding anything. */
void
expectStartTokenHeld(const Fabric &f)
{
    DeadlockReport rep = analyzeDeadlock(f);
    ASSERT_EQ(rep.held.size(), 1u) << rep.render();
    EXPECT_EQ(rep.held[0].name, "control#0:box0.0->pcu0.0");
    EXPECT_EQ(rep.held[0].tokens, 1u);
}

} // namespace

/** The empty active set diagnoses the circular wait exactly — and the
 *  post-mortem pinpoints the wait: the start token sits undelivered in
 *  front of the gated PCU. */
TEST(SchedulerDeath, CreditLoopDeadlockIsDiagnosedExactly)
{
    Fabric f(creditLoopDesign());
    RunResult rr = f.runChecked(10'000'000);
    EXPECT_EQ(rr.status.code(), StatusCode::kDeadlock);
    EXPECT_NE(rr.status.message().find("deadlock"), std::string::npos)
        << rr.status.message();
    expectStartTokenHeld(f);
}

/** Activity mode needs no no-progress window: the deadlock fires the
 *  cycle the active set empties, long before the dense window expires. */
TEST(SchedulerDeath, DeadlockFiresWithoutWaitingForWindow)
{
    Fabric f(creditLoopDesign());
    RunResult rr = f.runChecked(10'000'000);
    EXPECT_EQ(rr.status.code(), StatusCode::kDeadlock);
    EXPECT_EQ(rr.status.message(),
              strfmt("fabric deadlock: empty active set at cycle %llu",
                     static_cast<unsigned long long>(f.now())));
    EXPECT_LT(f.now(), kDeadlockWindow);
    expectStartTokenHeld(f);
}

/** Dense mode keeps the windowed scan: it waits out the fixed window
 *  and names it in the message. */
TEST(SchedulerDeath, DenseModeWaitsOutTheFixedWindow)
{
    Fabric f(creditLoopDesign(), denseOpts());
    RunResult rr = f.runChecked(10'000'000);
    EXPECT_EQ(rr.status.code(), StatusCode::kDeadlock);
    EXPECT_NE(rr.status.message().find(
                  strfmt("no progress for %u cycles", kDeadlockWindow)),
              std::string::npos)
        << rr.status.message();
    EXPECT_GT(f.now(), kDeadlockWindow);
    expectStartTokenHeld(f);
}

/** The window counts from the last progress, not from the call: run in
 *  cap legs far shorter than the window, the oracle still reports the
 *  deadlock, on the cycle and with the message of a single call. */
TEST(SchedulerDeath, DenseWindowSpansCapLegs)
{
    Fabric once(creditLoopDesign(), denseOpts());
    RunResult whole = once.runChecked(10'000'000);
    ASSERT_EQ(whole.status.code(), StatusCode::kDeadlock);

    Fabric legs(creditLoopDesign(), denseOpts());
    RunResult rr;
    for (Cycles cap = 389; cap < 10'000'000; cap += 389) {
        rr = legs.runChecked(cap);
        if (rr.status.code() != StatusCode::kMaxCycles)
            break;
    }
    EXPECT_EQ(rr.status.code(), StatusCode::kDeadlock);
    EXPECT_EQ(rr.status.message(), whole.status.message());
    EXPECT_EQ(legs.now(), once.now());
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
    uint64_t streamPushes = 0;
    for (const auto &[name, value] : res.stats.all()) {
        if (name.starts_with("stream.") && name.ends_with(".pushes"))
            streamPushes += value;
    }
    EXPECT_EQ(streamPushes, res.stats.get("net.scalar.pushes") +
                                res.stats.get("net.vector.pushes") +
                                res.stats.get("net.control.pushes"));
}

// ---- arrival timers on the timing wheel --------------------------------

namespace
{

/** A bare scheduler over registered streams: no units, no memory
 *  system. step() runs one cycle; jump() advances the way Fabric's run
 *  loop does, to the next cycle with work or the next timer. */
struct BareStreams
{
    Scheduler sched;
    std::vector<std::unique_ptr<Stream<Word>>> streams;
    Cycles now = 0;

    Stream<Word> &
    add(uint32_t latency)
    {
        streams.push_back(std::make_unique<Stream<Word>>(
            "s" + std::to_string(streams.size()), latency, 4));
        sched.addStream(streams.back().get());
        return *streams.back();
    }
    void
    step()
    {
        sched.runCycle(now);
        ++now;
    }
    void
    jump()
    {
        if (!sched.workPending())
            now = sched.nextEventCycle();
        step();
    }
};

} // namespace

/** A timer longer than the wheel's turn waits in its bucket through
 *  the bucket's earlier passes: the element lands exactly `latency`
 *  cycles after its push, and nextEventCycle() reports that arrival,
 *  not a pass of its bucket, even behind a nearer timer. */
TEST(SchedulerWheel, LongLatencyArrivesAfterWholeTurns)
{
    BareStreams b;
    Stream<Word> &far = b.add(150);
    Stream<Word> &near = b.add(30);
    far.push(7);
    near.push(8);
    b.step(); // cycle 0 stamps arrivals 150 and 30
    while (b.now < 150) {
        ASSERT_FALSE(b.sched.workPending()) << "cycle " << b.now;
        EXPECT_EQ(b.sched.nextEventCycle(), b.now < 30 ? 29u : 149u)
            << "cycle " << b.now;
        EXPECT_EQ(near.canPop(), b.now >= 30) << "cycle " << b.now;
        EXPECT_FALSE(far.canPop()) << "cycle " << b.now;
        b.step();
    }
    ASSERT_TRUE(far.canPop());
    EXPECT_EQ(far.front(), 7u);
    EXPECT_EQ(b.sched.nextEventCycle(), kNeverCycle);

    // The same two arrivals, reached by clock jumps: each lands on its
    // own cycle, never on a pass of the long timer's bucket.
    BareStreams j;
    Stream<Word> &jfar = j.add(150);
    Stream<Word> &jnear = j.add(30);
    jfar.push(7);
    jnear.push(8);
    j.step();
    std::vector<Cycles> landed;
    while (!jfar.canPop()) {
        j.jump();
        landed.push_back(j.now - 1);
    }
    EXPECT_EQ(landed, (std::vector<Cycles>{29, 149}));
    EXPECT_TRUE(jnear.canPop());
}

/** Timers due on one cycle share a bucket and all fire on it, whether
 *  they were scheduled on the same cycle or not. */
TEST(SchedulerWheel, SameCycleArrivalsAllCommit)
{
    BareStreams b;
    Stream<Word> &x = b.add(5);
    Stream<Word> &y = b.add(5);
    Stream<Word> &z = b.add(3);
    x.push(1);
    y.push(2);
    b.step();
    b.step();
    z.push(3); // pushed on cycle 2, due with x and y on cycle 5
    while (b.now < 5) {
        EXPECT_FALSE(x.canPop() || y.canPop() || z.canPop())
            << "cycle " << b.now;
        b.jump();
    }
    EXPECT_EQ(b.now, 5u);
    EXPECT_TRUE(x.canPop());
    EXPECT_TRUE(y.canPop());
    EXPECT_TRUE(z.canPop());
    EXPECT_EQ(b.sched.nextEventCycle(), kNeverCycle);
}

/** A timer entry that no longer matches its stream's armed cycle is
 *  left behind and fires as a no-op commit; rearmAll() empties the
 *  wheel, so it leaves none. Both runs drop the first of two in-flight
 *  elements, which re-arms the stream from cycle 4 to cycle 5. */
TEST(SchedulerWheel, LeftBehindEntriesFireAsNoOps)
{
    for (bool rearm : {false, true}) {
        BareStreams b;
        Stream<Word> &s = b.add(5);
        s.push(1);
        b.step(); // arrival on cycle 5: timer on cycle 4
        s.push(2);
        b.step(); // arrival on cycle 6
        ASSERT_TRUE(s.injectDrop()); // the first element, in flight
        if (rearm)
            b.sched.rearmAll();
        else
            b.sched.streamDirty(&s);
        b.step(); // cycle 2 arms the timer for cycle 5
        EXPECT_EQ(b.sched.nextEventCycle(), rearm ? 5u : 4u)
            << "rearm " << rearm;
        if (!rearm) {
            b.jump(); // cycle 4: the left-behind entry delivers nothing
            EXPECT_EQ(b.now, 5u);
            EXPECT_FALSE(s.canPop());
            EXPECT_EQ(b.sched.nextEventCycle(), 5u);
        }
        b.jump();
        EXPECT_EQ(b.now, 6u) << "rearm " << rearm;
        ASSERT_TRUE(s.canPop());
        EXPECT_EQ(s.front(), 2u);
        EXPECT_EQ(s.available(), 1u);
        EXPECT_EQ(b.sched.nextEventCycle(), kNeverCycle);
    }
}

// ---- AGs sleeping on coalescer capacity -------------------------------

namespace
{

/** A CapacityCycleParity case names an app; this suffix runs it on one
 *  DRAM channel, so every AG shares one coalescing unit and most
 *  refusals are for its port. */
const std::string kOneChannel = " on one channel";

std::string
appOf(const std::string &pressureCase)
{
    return pressureCase.substr(0, pressureCase.find(kOneChannel));
}

/** Two outstanding bursts and two coalescing-cache lines per unit:
 *  dense and sparse AGs alike are refused for capacity most cycles.
 *  DRAM ECC turns injected double-bit responses into retries. */
ArchParams
pressuredParams(const std::string &pressureCase)
{
    ArchParams p = ArchParams::plasticineFinal();
    p.coalescerMaxOutstanding = 2;
    p.coalescerCacheLines = 2;
    p.dram.ecc = true;
    if (appOf(pressureCase) != pressureCase)
        p.dram.channels = 1;
    return p;
}

struct PressuredRun
{
    Runner::Result result;
    uint64_t dramRetries = 0;
    /** AG cycles classified dramWait: evaluated, and in total. */
    uint64_t agDramWaitSteps = 0, agDramWait = 0;
};

/** Run a pressure case, checked against the reference evaluator,
 *  optionally with DRAM faults injected. */
PressuredRun
runPressured(const std::string &pressureCase, SimOptions opts,
             const resilience::FaultPlan *faults = nullptr)
{
    setVerbose(false);
    const std::string name = appOf(pressureCase);
    ArchParams params = pressuredParams(pressureCase);
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
    out.result = std::move(res);
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

/** Refused AGs sleep instead of re-polling every cycle: a dense AG on
 *  its coalescing unit's waiting list until it is the lowest-index
 *  waiter whose bursts fit, a sparse AG until a burst there retires.
 *  Parameter: an app with dense (InnerProduct, TPC-H Q6) or sparse
 *  (SMDV) AGs, and TPC-H Q6 with its eight dense AGs on one unit. */
class CapacityCycleParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CapacityCycleParity, SleepingAgsMatchDenseInterpBitExactly)
{
    PressuredRun oracle = runPressured(GetParam(), denseOpts());
    PressuredRun fast = runPressured(GetParam(), SimOptions{});
    expectSameRun(appOf(GetParam()), oracle.result, fast.result);

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
 *  running fabric back onto it (AGs asleep on waiting and parked
 *  lists, which the restore clears) must finish bit-exactly. */
TEST_P(CapacityCycleParity, MidRunCheckpointRoundTrips)
{
    setVerbose(false);
    Cycles total = runPressured(GetParam(), SimOptions{}).result.cycles;
    ASSERT_GT(total, 0u);

    apps::AppInstance app =
        specByName(appOf(GetParam())).make(apps::Scale::kTiny);
    Runner r(app.prog, pressuredParams(GetParam()));
    app.load(r);
    Runner::Result out;
    Status st = r.tryRun(out, 0);
    Fabric *orig = r.mutableFabric();

    // Stop at a cap every eighth of the run; snapshot the first stop
    // past the midpoint that has bursts in flight.
    std::optional<FabricCheckpoint> cp;
    while (st.code() == StatusCode::kMaxCycles) {
        if (!cp && orig->now() >= total / 2 && !orig->mem().quiescent())
            cp = orig->saveCheckpoint();
        st = orig->runChecked(orig->now() + std::max<Cycles>(1, total / 8))
                 .status;
    }
    ASSERT_TRUE(st.ok()) << st.message();
    ASSERT_TRUE(cp.has_value()) << "no mid-run snapshot with live bursts";

    Fabric fresh(r.mapResult().fabric);
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
    expectSameRun(appOf(GetParam()), oracle.result, fast.result);
    EXPECT_EQ(oracle.dramRetries, fast.dramRetries);
    EXPECT_GE(fast.dramRetries, 1u);
}

INSTANTIATE_TEST_SUITE_P(DenseAndSparseAgs, CapacityCycleParity,
                         ::testing::Values("InnerProduct", "SMDV",
                                           "TPC-H Query 6",
                                           "TPC-H Query 6" + kOneChannel));

namespace
{

/** The two fabrics' records at their common stop, DRAM read back. */
Status
sameMachine(const pir::Program &prog, const compiler::MapResult &map,
            const Fabric &dense, const Fabric &activity, Cycles stop)
{
    auto record = [&](const Fabric &f) {
        RunRecord rec = captureRun(f, prog, stop);
        readBackDram(f, prog, map, rec);
        return rec;
    };
    return checkWholeRun(prog, record(dense), record(activity),
                         "dense+interp vs activity+specialized");
}

/** Hard-fault the AG with index `ag`, at this cycle boundary. */
void
stickAg(Fabric &f, uint32_t ag)
{
    const_cast<AgSim *>(f.agPtr(ag))->setStuck(true);
}

/** Where a probe run of TPC-H Q6 on one channel (its eight dense AGs
 *  share one coalescing unit) refused and accepted each AG's
 *  commands. */
struct WaitProbe
{
    std::vector<std::set<Cycles>> refused, accepted;
};

/** Hard-fault one AG at the cycle boundary `choose(probe)` picks, in a
 *  dense and an activity fabric, and check both reach the same state on
 *  the cycle activity mode reports the deadlock the stuck AG causes. */
void
expectStuckWaiterParity(
    const std::function<std::pair<uint32_t, Cycles>(const WaitProbe &)>
        &choose)
{
    setVerbose(false);
    const std::string pressureCase = "TPC-H Query 6" + kOneChannel;
    apps::AppInstance app =
        specByName(appOf(pressureCase)).make(apps::Scale::kTiny);
    Runner r(app.prog, pressuredParams(pressureCase));
    app.load(r);
    ASSERT_TRUE(r.tryCompile().ok());
    const compiler::MapResult &map = r.mapResult();

    auto probe = loadedFabric(r, map, SimOptions{});
    const size_t numAgs = map.fabric.ags.size();
    WaitProbe seen{std::vector<std::set<Cycles>>(numAgs),
                   std::vector<std::set<Cycles>>(numAgs)};
    const auto wait = static_cast<size_t>(CycleClass::kDramWait);
    for (Cycles cap = 1;; ++cap) {
        std::vector<uint64_t> waits(numAgs, 0), cmds(numAgs, 0);
        for (uint32_t i = 0; i < numAgs; ++i) {
            if (const AgSim *ag = probe->agPtr(i)) {
                waits[i] = ag->acct().by[wait];
                cmds[i] = ag->stats().denseCmds;
            }
        }
        RunResult rr = probe->runChecked(cap);
        for (uint32_t i = 0; i < numAgs; ++i) {
            const AgSim *ag = probe->agPtr(i);
            if (ag && ag->acct().by[wait] > waits[i])
                seen.refused[i].insert(cap - 1);
            if (ag && ag->stats().denseCmds > cmds[i])
                seen.accepted[i].insert(cap - 1);
        }
        if (rr.status.ok())
            break;
        ASSERT_EQ(rr.status.code(), StatusCode::kMaxCycles);
    }
    const auto [victim, at] = choose(seen);
    ASSERT_NE(at, kNeverCycle) << "no such AG in the probe run";

    auto dense = loadedFabric(r, map, denseOpts());
    auto activity = loadedFabric(r, map, SimOptions{});
    ASSERT_EQ(dense->runChecked(at).status.code(), StatusCode::kMaxCycles);
    ASSERT_EQ(activity->runChecked(at).status.code(),
              StatusCode::kMaxCycles);
    stickAg(*dense, victim);
    stickAg(*activity, victim);
    // The run can no longer finish; activity mode sees the deadlock
    // form, and the dense oracle must reach that cycle in the same
    // state.
    RunResult a = activity->runChecked(at + 100'000);
    RunResult d = dense->runChecked(activity->now());
    EXPECT_EQ(a.status.code(), StatusCode::kDeadlock) << a.status.message();
    EXPECT_EQ(d.status.code(), StatusCode::kMaxCycles);
    ASSERT_EQ(dense->now(), activity->now());
    Status st = sameMachine(app.prog, map, *dense, *activity,
                            activity->now());
    EXPECT_TRUE(st.ok()) << "AG " << victim << " stuck at cycle " << at
                         << ": " << st.message();
}

} // namespace

/** An AG hard-faulted while it sleeps on its coalescing unit's waiting
 *  list never takes the port again: when its bursts would fit, the
 *  unit drops it and wakes the next waiter whose bursts fit, which
 *  dense ticking admits on the same cycle. The victim was refused on
 *  the cycle before and still has commands to issue. */
TEST(WaitingListParity, StuckAgIsDroppedFromItsWaitingList)
{
    expectStuckWaiterParity([](const WaitProbe &p) {
        for (uint32_t i = 0; i < p.refused.size(); ++i) {
            for (Cycles c : p.refused[i]) {
                if (c >= 64 && !p.accepted[i].count(c + 1) &&
                    !p.accepted[i].empty() && c < *p.accepted[i].rbegin())
                    return std::make_pair(i, c + 1);
            }
        }
        return std::make_pair(0u, kNeverCycle);
    });
}

/** The waiter the unit woke for the coming cycle is hard-faulted at
 *  the cycle boundary: the unit re-picks at once, so the next waiter
 *  whose bursts fit takes the port on that cycle, as under dense
 *  ticking. */
TEST(WaitingListParity, StuckPickHandsThePortToTheNextWaiter)
{
    expectStuckWaiterParity([](const WaitProbe &p) {
        for (uint32_t i = 0; i < p.refused.size(); ++i) {
            for (Cycles c : p.refused[i]) {
                if (c >= 64 && p.accepted[i].count(c + 1))
                    return std::make_pair(i, c + 1);
            }
        }
        return std::make_pair(0u, kNeverCycle);
    });
}

/** Activity mode jumps the clock over cycles where only arrivals and
 *  memory events are pending, but never past a cycle after whose step
 *  dense ticking samples an epoch, and a jump that reaches a cap stops
 *  there. So both modes write the same epoch rows, checkpoints saved
 *  at the same runChecked(cap) stops each resume to the same run, and
 *  at every stop each unit's busy() and lastProgressAt(), what deadlock
 *  post-mortems read (runtime/bottleneck.cpp), are the same. (The name
 *  is kept from when the fabric had a watchdog that read them.) */
class DutyCycleParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DutyCycleParity, CheckpointsEpochsAndWatchdogLandOnDenseCycles)
{
    setVerbose(false);
    apps::AppInstance app = specByName(GetParam()).make(apps::Scale::kTiny);
    Runner r(app.prog);
    app.load(r);
    ASSERT_TRUE(r.tryCompile().ok());
    const compiler::MapResult &map = r.mapResult();

    auto epochs = [](SimOptions o) {
        o.trace.enabled = true;
        o.trace.epochCycles = 61;
        return o;
    };
    auto dense = loadedFabric(r, map, epochs(denseOpts()));
    auto activity = loadedFabric(r, map, epochs(SimOptions{}));
    // Stop both every 389 cycles and snapshot each stop.
    std::vector<FabricCheckpoint> dcps, acps;
    RunResult d, a;
    for (Cycles cap = 0;; cap += 389) {
        d = dense->runChecked(cap);
        a = activity->runChecked(cap);
        ASSERT_EQ(d.status.code(), a.status.code()) << "cap " << cap;
        ASSERT_EQ(dense->now(), activity->now()) << "cap " << cap;
        if (d.status.code() != StatusCode::kMaxCycles)
            break;
        for (size_t u = 0; u < dense->units().size(); ++u) {
            const SimUnit *du = dense->units()[u];
            const SimUnit *au = activity->units()[u];
            ASSERT_EQ(du->busy(), au->busy())
                << du->name() << " at cap " << cap;
            ASSERT_EQ(du->lastProgressAt(), au->lastProgressAt())
                << du->name() << " at cap " << cap;
        }
        dcps.push_back(dense->saveCheckpoint());
        acps.push_back(activity->saveCheckpoint());
    }
    ASSERT_TRUE(d.status.ok()) << d.status.message();
    ASSERT_EQ(d.cycles, a.cycles);

    std::ostringstream denseCsv, activityCsv;
    dense->writeUtilizationCsv(denseCsv);
    activity->writeUtilizationCsv(activityCsv);
    EXPECT_EQ(denseCsv.str(), activityCsv.str());

    ASSERT_GT(dcps.size(), 1u);
    for (size_t i = 0; i < dcps.size(); ++i) {
        ASSERT_EQ(dcps[i].cycle, acps[i].cycle) << "checkpoint " << i;
        // The tapes differ only in host tallies (a sleeping unit's
        // ledger is settled when it next evaluates): resumed under the
        // oracle, both finish as the same machine.
        auto fromDense = std::make_unique<Fabric>(map.fabric, denseOpts());
        auto fromActivity =
            std::make_unique<Fabric>(map.fabric, denseOpts());
        ASSERT_TRUE(fromDense->restoreCheckpoint(dcps[i]).ok());
        ASSERT_TRUE(fromActivity->restoreCheckpoint(acps[i]).ok());
        RunResult rd = fromDense->runChecked();
        RunResult ra = fromActivity->runChecked();
        ASSERT_TRUE(rd.status.ok()) << rd.status.message();
        ASSERT_TRUE(ra.status.ok()) << ra.status.message();
        ASSERT_EQ(rd.cycles, ra.cycles);
        Status st = sameMachine(app.prog, map, *fromDense, *fromActivity,
                                rd.cycles);
        EXPECT_TRUE(st.ok()) << "checkpoint at cycle " << dcps[i].cycle
                             << ": " << st.message();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DutyCycleParity,
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

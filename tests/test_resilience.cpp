/** @file Fault-injection & resilience subsystem: ECC correction on
 *  every benchmark, rollback from uncorrectable upsets, degraded
 *  re-mapping around hard faults, deadlock post-mortems, typed
 *  address-fault stops, checkpoint round trips, non-fatal Status paths
 *  and the campaign driver's no-unexplained-SDC invariant. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "compiler/mapper.hpp"
#include "model/area.hpp"
#include "model/power.hpp"
#include "resilience/campaign.hpp"
#include "resilience/fault.hpp"
#include "resilience/recovery.hpp"
#include "runtime/bottleneck.hpp"
#include "runtime/runner.hpp"

using namespace plast;
using namespace plast::resilience;

namespace
{

apps::AppInstance
appByName(const std::string &name)
{
    const apps::AppSpec *spec = apps::findApp(name);
    panic_if(!spec, "no such app '%s'", name.c_str());
    return spec->make(apps::Scale::kTiny);
}

ArchParams
eccParams(bool on)
{
    ArchParams p = ArchParams::plasticineFinal();
    p.pmu.ecc = on;
    p.dram.ecc = on;
    return p;
}

uint32_t
firstUsedPcu(const FabricConfig &cfg)
{
    for (uint32_t i = 0; i < cfg.pcus.size(); ++i) {
        if (cfg.pcus[i].used)
            return i;
    }
    panic("no used PCU");
}

} // namespace

// ---- acceptance: ECC corrects single-bit upsets on all 13 apps ------

class EccAllApps : public ::testing::TestWithParam<int>
{
};

TEST_P(EccAllApps, SingleBitUpsetsAreCorrectedBitIdentically)
{
    setVerbose(false);
    const auto &spec = apps::allApps()[static_cast<size_t>(GetParam())];
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    ArchParams params = eccParams(true);

    // Fault-free horizon.
    Runner clean(app.prog, params);
    app.load(clean);
    Runner::Result ref;
    ASSERT_TRUE(clean.tryRun(ref).ok()) << spec.name;
    ASSERT_GT(ref.cycles, 0u);

    // ~8 single-bit upsets across scratchpads and DRAM bursts.
    Runner r(app.prog, params);
    app.load(r);
    ASSERT_TRUE(r.tryCompile().ok());
    FaultPlan plan = FaultPlan::random(
        0xecc0 + static_cast<uint64_t>(GetParam()),
        8.0e6 / static_cast<double>(ref.cycles), ref.cycles,
        r.mapResult().fabric, FaultMix::kProtected, false);
    ASSERT_FALSE(plan.empty()) << spec.name;
    for (auto &e : plan.events)
        e.bits = 1;

    FaultInjector inj(plan, /*dramEcc=*/true);
    r.setFaultInjector(&inj);
    Runner::Result out;
    Status st = r.tryRunValidated(out);
    EXPECT_TRUE(st.ok()) << spec.name << ": " << st.message();
    // Correction is in-line (scrub on read, fix on burst response):
    // the run must also be cycle-exact against the fault-free one.
    EXPECT_EQ(out.cycles, ref.cycles) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, EccAllApps, ::testing::Range(0, 13),
                         [](const ::testing::TestParamInfo<int> &info) {
                             std::string n =
                                 apps::allApps()[static_cast<size_t>(
                                                     info.param)]
                                     .name;
                             for (char &ch : n) {
                                 if (!isalnum(
                                         static_cast<unsigned char>(ch)))
                                     ch = '_';
                             }
                             return n;
                         });

// ---- without ECC the same upsets corrupt silently -------------------

TEST(Resilience, NoEccScratchUpsetCorruptsSilently)
{
    setVerbose(false);
    apps::AppInstance app = appByName("GEMM");
    ArchParams params = eccParams(false);

    Runner clean(app.prog, params);
    app.load(clean);
    Runner::Result ref;
    ASSERT_TRUE(clean.tryRun(ref).ok());

    bool corrupted = false;
    for (uint64_t seed = 1; seed <= 10 && !corrupted; ++seed) {
        Runner r(app.prog, params);
        app.load(r);
        ASSERT_TRUE(r.tryCompile().ok());
        FaultPlan plan = FaultPlan::random(
            seed, 10.0e6 / static_cast<double>(ref.cycles), ref.cycles,
            r.mapResult().fabric, FaultMix::kProtected, false);
        for (auto &e : plan.events)
            e.bits = 1;
        FaultInjector inj(plan, /*dramEcc=*/false);
        r.setFaultInjector(&inj);
        Runner::Result out;
        Status st = r.tryRunValidated(out);
        if (st.code() == StatusCode::kMismatch)
            corrupted = true;
        else
            EXPECT_TRUE(st.ok()) << st.message();
    }
    EXPECT_TRUE(corrupted)
        << "10 seeded upset plans never corrupted an output";
}

// ---- DRAM ECC: correction and detect-retry --------------------------

TEST(Resilience, DramEccCorrectsAndRetries)
{
    setVerbose(false);
    apps::AppInstance app = appByName("InnerProduct");
    ArchParams params = eccParams(true);
    Runner r(app.prog, params);
    app.load(r);

    FaultPlan plan;
    for (uint32_t i = 0; i < 4; ++i) {
        FaultEvent e;
        e.kind = FaultKind::kDramResponse;
        e.cycle = 1;
        e.bits = i < 2 ? 1 : 2; // two correctable, two detect-retry
        e.bit = 5 + i;
        plan.events.push_back(e);
    }
    FaultInjector inj(plan, /*dramEcc=*/true);
    r.setFaultInjector(&inj);
    Runner::Result out;
    Status st = r.tryRunValidated(out);
    EXPECT_TRUE(st.ok()) << st.message();
    ASSERT_NE(r.fabric(), nullptr);
    EXPECT_GE(r.fabric()->mem().stats().dramCorrected, 1u);
    EXPECT_GE(r.fabric()->mem().stats().dramRetries, 1u);
    EXPECT_EQ(inj.firedCount(FaultKind::kDramResponse), 4u);
}

// ---- acceptance: hard PCU fault -> re-map -> correct completion -----

TEST(Resilience, HardPcuFaultRemapsOnInnerProduct)
{
    setVerbose(false);
    apps::AppInstance app = appByName("InnerProduct");
    ArchParams params = eccParams(true);
    Runner stage(app.prog, params);
    app.load(stage);
    ASSERT_TRUE(stage.tryCompile().ok());

    ResilientRunner rr(app.prog, params, stage.sharedMapResult());
    rr.setInputs(stage.hostBuffers());
    ASSERT_TRUE(rr.runGolden().ok());

    FaultPlan plan;
    FaultEvent e;
    e.kind = FaultKind::kPcuStuck;
    e.cycle = rr.goldenCycles() / 3;
    e.unit = firstUsedPcu(stage.mapResult().fabric);
    plan.events.push_back(e);

    ResilienceReport rep = rr.run(plan);
    EXPECT_EQ(rep.cls, RunClass::kRecovered) << rep.detail;
    EXPECT_GE(rep.remaps, 1u);
    EXPECT_TRUE(rep.finalStatus.ok()) << rep.finalStatus.message();
}

TEST(Resilience, HardPcuFaultRemapsOnGemm)
{
    setVerbose(false);
    apps::AppInstance app = appByName("GEMM");
    ArchParams params = eccParams(true);
    Runner stage(app.prog, params);
    app.load(stage);
    ASSERT_TRUE(stage.tryCompile().ok());

    ResilientRunner rr(app.prog, params, stage.sharedMapResult());
    rr.setInputs(stage.hostBuffers());
    ASSERT_TRUE(rr.runGolden().ok());

    FaultPlan plan;
    FaultEvent e;
    e.kind = FaultKind::kPcuStuck;
    e.cycle = rr.goldenCycles() / 2;
    e.unit = firstUsedPcu(stage.mapResult().fabric);
    plan.events.push_back(e);

    ResilienceReport rep = rr.run(plan);
    EXPECT_EQ(rep.cls, RunClass::kRecovered) << rep.detail;
    EXPECT_GE(rep.remaps, 1u);
    EXPECT_TRUE(rep.finalStatus.ok()) << rep.finalStatus.message();
}

// ---- uncorrectable (2-bit) scratch upset -> checkpoint rollback -----

TEST(Resilience, UncorrectableUpsetRollsBackToCheckpoint)
{
    setVerbose(false);
    apps::AppInstance app = appByName("GDA");
    ArchParams params = eccParams(true);
    Runner stage(app.prog, params);
    app.load(stage);
    ASSERT_TRUE(stage.tryCompile().ok());

    ResilientRunner rr(app.prog, params, stage.sharedMapResult());
    rr.setInputs(stage.hostBuffers());
    ASSERT_TRUE(rr.runGolden().ok());

    bool rolledBack = false;
    for (uint64_t seed = 1; seed <= 12 && !rolledBack; ++seed) {
        FaultPlan plan = FaultPlan::random(
            seed, 4.0e6 / static_cast<double>(rr.goldenCycles()),
            rr.goldenCycles(), stage.mapResult().fabric,
            FaultMix::kProtected, false);
        // Keep only scratchpad events and make every one a double-bit
        // upset: detected-uncorrectable, recoverable only by rollback.
        std::vector<FaultEvent> scratch;
        for (auto ev : plan.events) {
            if (ev.kind == FaultKind::kPmuScratchFlip) {
                ev.bits = 2;
                scratch.push_back(ev);
            }
        }
        plan.events = std::move(scratch);
        if (plan.empty())
            continue;

        ResilienceReport rep = rr.run(plan);
        EXPECT_NE(rep.cls, RunClass::kSilentCorruption) << rep.detail;
        if (rep.rollbacks >= 1 &&
            rep.cls == RunClass::kRecovered) {
            rolledBack = true;
            EXPECT_TRUE(rep.finalStatus.ok());
        }
    }
    EXPECT_TRUE(rolledBack)
        << "no seeded double-bit plan exercised a rollback";
}

// ---- control-token loss: detected and recovered, never silent -------

TEST(Resilience, DroppedControlTokenIsNeverSilent)
{
    setVerbose(false);
    apps::AppInstance app = appByName("InnerProduct");
    ArchParams params = eccParams(true);
    Runner stage(app.prog, params);
    app.load(stage);
    ASSERT_TRUE(stage.tryCompile().ok());

    ResilientRunner rr(app.prog, params, stage.sharedMapResult());
    rr.setInputs(stage.hostBuffers());
    ASSERT_TRUE(rr.runGolden().ok());
    const Cycles h = rr.goldenCycles();

    bool recovered = false;
    for (uint32_t unit = 0; unit < 6; ++unit) {
        for (Cycles cycle : {h / 4, h / 2, 3 * h / 4}) {
            FaultPlan plan;
            FaultEvent e;
            e.kind = FaultKind::kCtrlTokenDrop;
            e.cycle = cycle;
            e.unit = unit;
            plan.events.push_back(e);
            ResilienceReport rep = rr.run(plan);
            // A lost token may be harmless (empty stream at that
            // cycle) but must never corrupt or escape detection.
            EXPECT_NE(rep.cls, RunClass::kSilentCorruption)
                << rep.detail;
            EXPECT_TRUE(rep.finalStatus.ok())
                << rep.finalStatus.message();
            if (rep.cls == RunClass::kRecovered &&
                rep.rollbacks + rep.restarts >= 1)
                recovered = true;
        }
    }
    EXPECT_TRUE(recovered)
        << "no dropped token ever required detect-and-recover";
}

// ---- deadlock post-mortem (BottleneckReport extension) --------------

TEST(Resilience, DeadlockReportBlamesFrozenUnit)
{
    setVerbose(false);
    apps::AppInstance app = appByName("InnerProduct");
    ArchParams params = eccParams(true);
    Runner r(app.prog, params);
    app.load(r);
    ASSERT_TRUE(r.tryCompile().ok());

    FaultPlan plan;
    FaultEvent e;
    e.kind = FaultKind::kPcuStuck;
    e.cycle = 200;
    e.unit = firstUsedPcu(r.mapResult().fabric);
    plan.events.push_back(e);
    FaultInjector inj(plan, true);
    r.setFaultInjector(&inj);

    Runner::Result out;
    Status st = r.tryRun(out);
    ASSERT_FALSE(st.ok());

    DeadlockReport rep = analyzeDeadlock(*r.fabric());
    EXPECT_NE(rep.verdict.find("hard-faulted"), std::string::npos)
        << rep.verdict;
    bool sawStuck = false;
    for (const auto &w : rep.waiting)
        sawStuck |= w.stuck;
    EXPECT_TRUE(sawStuck);
    std::string text = rep.render();
    EXPECT_NE(text.find("Deadlock report"), std::string::npos);
    EXPECT_NE(text.find("[STUCK]"), std::string::npos);
}

// ---- non-fatal Status paths -----------------------------------------

TEST(Resilience, StatusReplacesFatalPaths)
{
    setVerbose(false);
    apps::AppInstance app = appByName("InnerProduct");
    ArchParams params = eccParams(true);

    // Compile failure as data: mask out every PCU.
    {
        Runner r(app.prog, params);
        compiler::UnitMask mask;
        for (uint32_t i = 0; i < params.numPcus(); ++i)
            mask.pcus.push_back(i);
        r.setUnitMask(mask);
        Status st = r.tryCompile();
        EXPECT_EQ(st.code(), StatusCode::kCompileError);
        EXPECT_NE(st.message().find("masked as faulted"),
                  std::string::npos)
            << st.message();
    }

    // Deadlock as data: a frozen PCU empties the active set.
    {
        Runner r(app.prog, params);
        app.load(r);
        ASSERT_TRUE(r.tryCompile().ok());
        FaultPlan plan;
        FaultEvent e;
        e.kind = FaultKind::kPcuStuck;
        e.cycle = 100;
        e.unit = firstUsedPcu(r.mapResult().fabric);
        plan.events.push_back(e);
        FaultInjector inj(plan, true);
        r.setFaultInjector(&inj);
        Runner::Result out;
        Status st = r.tryRun(out);
        EXPECT_EQ(st.code(), StatusCode::kDeadlock);
        EXPECT_NE(st.message().find("fabric deadlock"),
                  std::string::npos);
    }

    // Cycle-cap overrun as data.
    {
        Runner r(app.prog, params);
        app.load(r);
        Runner::Result out;
        Status st = r.tryRun(out, /*maxCycles=*/10);
        EXPECT_EQ(st.code(), StatusCode::kMaxCycles);
    }
}

// ---- address faults: a corrupted index ends the attempt typed --------

namespace
{

/** Status of one run of `app` under `plan` with `engine`; `stop` gets
 *  the completion or stop cycle, `image` the final DRAM image size. */
Status
runUnderPlan(apps::AppInstance &app, const ArchParams &params,
             const FaultPlan &plan, Engine engine, Cycles &stop,
             Addr &image)
{
    SimOptions so;
    so.engine = engine;
    Runner r(app.prog, params, so);
    app.load(r);
    FaultInjector inj(plan, params.dram.ecc);
    r.setFaultInjector(&inj);
    Runner::Result out;
    Status st = r.tryRun(out);
    stop = out.cycles;
    image = r.fabric() ? r.fabric()->mem().dram().sizeBytes() : 0;
    return st;
}

/** Both engines stop `app` under `plan` with the same kAddressFault on
 *  the same cycle, right after the step of the access and before a
 *  clean run completes, the DRAM image no larger than a clean run's;
 *  the recovery orchestrator then rolls back past the upset and
 *  finishes exact. `what` names the access in the status message. */
void
expectTypedAddressFault(apps::AppInstance &app, const ArchParams &params,
                        const FaultPlan &plan, const std::string &what)
{
    Cycles cleanStop, oracleStop, productionStop;
    Addr cleanImage, oracleImage, productionImage;
    ASSERT_TRUE(runUnderPlan(app, params, FaultPlan{}, Engine::kProduction,
                             cleanStop, cleanImage)
                    .ok());
    Status oracle = runUnderPlan(app, params, plan, Engine::kOracle,
                                 oracleStop, oracleImage);
    Status production = runUnderPlan(app, params, plan,
                                     Engine::kProduction, productionStop,
                                     productionImage);
    EXPECT_EQ(oracle.code(), StatusCode::kAddressFault) << oracle.toString();
    EXPECT_EQ(production.code(), StatusCode::kAddressFault)
        << production.toString();
    EXPECT_NE(production.message().find(what), std::string::npos)
        << production.message();
    EXPECT_EQ(oracle.message(), production.message());
    EXPECT_EQ(oracleStop, productionStop);
    EXPECT_LT(productionStop, cleanStop);
    EXPECT_NE(production.message().find(
                  "(cycle " + std::to_string(productionStop - 1) + ")"),
              std::string::npos)
        << production.message();
    EXPECT_EQ(oracleImage, cleanImage);
    EXPECT_EQ(productionImage, cleanImage);

    Runner stage(app.prog, params);
    app.load(stage);
    ASSERT_TRUE(stage.tryCompile().ok());
    ResilientRunner rr(app.prog, params, stage.sharedMapResult());
    rr.setInputs(stage.hostBuffers());
    ResilienceReport rep = rr.run(plan);
    EXPECT_TRUE(rep.finalStatus.ok()) << rep.finalStatus.toString();
    EXPECT_EQ(rep.cls, RunClass::kRecovered) << rep.detail;
    EXPECT_GE(rep.rollbacks + rep.restarts, 1u);
    EXPECT_NE(rep.detail.find("address fault: " + what), std::string::npos)
        << rep.detail;
}

} // namespace

/** With DRAM ECC off, one upset in a burst of SMDV's column indices
 *  sends a gather far past the DRAM image, which used to grow the image
 *  to the corrupted address. */
TEST(Resilience, CorruptedGatherIndexStopsTypedOnBothEngines)
{
    setVerbose(false);
    apps::AppInstance app = appByName("SMDV");
    FaultPlan plan;
    FaultEvent e;
    e.kind = FaultKind::kDramResponse;
    e.cycle = 327;
    e.bits = 1;
    e.bit = 109;
    plan.events.push_back(e);
    expectTypedAddressFault(app, eccParams(false), plan, "gather");
}

/** With scratchpad ECC off, a flipped bit in a Kmeans scratchpad word
 *  that later serves as an index reads another scratchpad out of range,
 *  which used to panic. The victim PMU is searched for, so the test
 *  does not pin a placement. */
TEST(Resilience, CorruptedScratchpadIndexStopsTypedOnBothEngines)
{
    setVerbose(false);
    apps::AppInstance app = appByName("Kmeans");
    ArchParams params = eccParams(false);
    Runner probe(app.prog, params);
    app.load(probe);
    Runner::Result ref;
    ASSERT_TRUE(probe.tryRun(ref).ok());
    const FabricConfig &cfg = probe.mapResult().fabric;

    for (uint32_t u = 0; u < cfg.pmus.size(); ++u) {
        if (!cfg.pmus[u].used)
            continue;
        FaultPlan plan;
        FaultEvent e;
        e.kind = FaultKind::kPmuScratchFlip;
        e.cycle = ref.cycles / 8;
        e.unit = u;
        e.bit = 30;
        plan.events.push_back(e);
        Cycles stop;
        Addr image;
        if (runUnderPlan(app, params, plan, Engine::kProduction, stop, image)
                .code() != StatusCode::kAddressFault)
            continue;
        expectTypedAddressFault(app, params, plan, "scratchpad read");
        return;
    }
    FAIL() << "no scratchpad upset drove a Kmeans index out of range";
}

// ---- degraded placement ---------------------------------------------

TEST(Resilience, MaskedUnitsAreNeverPlaced)
{
    setVerbose(false);
    apps::AppInstance app = appByName("GEMM");
    ArchParams params = eccParams(true);

    Runner base(app.prog, params);
    ASSERT_TRUE(base.tryCompile().ok());
    uint32_t victim = firstUsedPcu(base.mapResult().fabric);

    compiler::UnitMask mask;
    mask.pcus.push_back(victim);
    compiler::MapResult degraded =
        compiler::compileProgram(app.prog, params, mask);
    ASSERT_TRUE(degraded.report.ok) << degraded.report.error;
    EXPECT_FALSE(degraded.fabric.pcus[victim].used);
}

// ---- satellite: mid-run checkpoint -> fresh fabric -> bit-exact -----

class CheckpointRestore : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CheckpointRestore, MidRunSnapshotResumesBitAndCycleExact)
{
    setVerbose(false);
    apps::AppInstance app = appByName(GetParam());
    ArchParams params = eccParams(true);

    Runner probe(app.prog, params);
    app.load(probe);
    Runner::Result ref;
    ASSERT_TRUE(probe.tryRun(ref).ok());

    // Stop at a cap halfway through, snapshot there, then run out.
    Runner r(app.prog, params);
    app.load(r);
    Runner::Result out;
    ASSERT_EQ(r.tryRun(out, ref.cycles / 2).code(), StatusCode::kMaxCycles);
    Fabric *orig = r.mutableFabric();
    FabricCheckpoint cp = orig->saveCheckpoint();
    ASSERT_EQ(cp.cycle, ref.cycles / 2);
    ASSERT_GT(cp.cycle, 0u);
    RunResult done = orig->runChecked();
    ASSERT_TRUE(done.status.ok()) << done.status.message();
    EXPECT_EQ(done.cycles, ref.cycles)
        << "stopping to checkpoint must not perturb execution";

    // The tape carries the whole architectural state including the
    // DRAM image, so a fresh fabric needs no input staging at all.
    Fabric fresh(r.mapResult().fabric);
    ASSERT_TRUE(fresh.restoreCheckpoint(cp).ok());
    RunResult rr = fresh.runChecked();
    ASSERT_TRUE(rr.status.ok()) << rr.status.message();
    EXPECT_EQ(fresh.now(), orig->now());

    for (uint32_t s = 0; s < app.prog.numArgOuts; ++s)
        EXPECT_EQ(fresh.argOut(s), orig->argOut(s)) << "argOut " << s;
    // Whole DRAM image, bit for bit. (The raw state tapes are not
    // compared: restoreCheckpoint re-arms the scheduler wholesale, so
    // the observability ledgers count a few awake-but-idle steps where
    // the original run slept — architectural state is unaffected.)
    ASSERT_EQ(fresh.dram().sizeBytes(), orig->dram().sizeBytes());
    for (Addr a = 0; a < orig->dram().sizeBytes(); a += sizeof(Word))
        ASSERT_EQ(fresh.dram().readWord(a), orig->dram().readWord(a))
            << "DRAM word at byte " << a;
}

INSTANTIATE_TEST_SUITE_P(ThreeApps, CheckpointRestore,
                         ::testing::Values("InnerProduct", "GEMM",
                                           "Kmeans"));

// ---- checkpoints cross the engine boundary --------------------------

/** The checkpoint tape encodes only architectural state — execution
 *  plans (sim/execplan.hpp) and the production engine's scheduler
 *  bookkeeping are derived at fabric construction or re-armed on
 *  restore — so a snapshot saved under either engine restores into a
 *  fabric running the other and resumes bit- and cycle-exactly.
 *  Parameter: (engine that saves, engine that resumes); each is named
 *  by its datapath, as manifests name it. */
class CrossEngineCheckpoint
    : public ::testing::TestWithParam<std::pair<Engine, Engine>>
{
};

TEST_P(CrossEngineCheckpoint, SnapshotRestoresAcrossEngines)
{
    auto [saveEngine, resumeEngine] = GetParam();
    setVerbose(false);
    apps::AppInstance app = appByName("GEMM");
    ArchParams params = eccParams(true);

    Runner probe(app.prog, params);
    app.load(probe);
    Runner::Result ref;
    ASSERT_TRUE(probe.tryRun(ref).ok());

    SimOptions save;
    save.engine = saveEngine;
    Runner r(app.prog, params, save);
    app.load(r);
    Runner::Result out;
    ASSERT_EQ(r.tryRun(out, ref.cycles / 2).code(), StatusCode::kMaxCycles);
    Fabric *orig = r.mutableFabric();
    FabricCheckpoint cp = orig->saveCheckpoint();
    ASSERT_GT(cp.cycle, 0u);
    RunResult done = orig->runChecked();
    ASSERT_TRUE(done.status.ok()) << done.status.message();
    EXPECT_EQ(done.cycles, ref.cycles)
        << "engine choice must not perturb execution";

    SimOptions resume;
    resume.engine = resumeEngine;
    Fabric fresh(r.mapResult().fabric, resume);
    ASSERT_TRUE(fresh.restoreCheckpoint(cp).ok());
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

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CrossEngineCheckpoint,
    ::testing::Values(
        std::make_pair(Engine::kOracle, Engine::kProduction),
        std::make_pair(Engine::kProduction, Engine::kOracle),
        std::make_pair(Engine::kProduction, Engine::kProduction)),
    [](const ::testing::TestParamInfo<std::pair<Engine, Engine>> &info) {
        return std::string(datapathName(info.param.first)) + "_to_" +
               std::string(datapathName(info.param.second));
    });

// ---- report classification helpers ----------------------------------

TEST(Resilience, SdcExplanationTracksUnprotectedUpsets)
{
    ResilienceReport rep;
    rep.cls = RunClass::kSilentCorruption;
    rep.firedUnprotected = 0;
    EXPECT_FALSE(rep.explainedSdc()); // ECC-covered state only: a hole
    rep.firedUnprotected = 1;
    EXPECT_TRUE(rep.explainedSdc()); // datapath upset: expected escape
    EXPECT_STREQ(runClassName(RunClass::kSilentCorruption),
                 "silent-corruption");
    EXPECT_STREQ(runClassName(RunClass::kRecovered), "recovered");
}

// ---- campaign driver: the CI invariant ------------------------------

TEST(Resilience, CampaignProtectedMixHasNoUnexplainedSdc)
{
    setVerbose(false);
    CampaignOptions opts;
    opts.rate = 500.0;
    opts.runsPerApp = 2;
    opts.ecc = true;
    opts.mix = FaultMix::kProtected;
    opts.apps = {"InnerProduct", "GEMM"};
    CampaignResult res = runCampaign(opts);
    EXPECT_EQ(res.runs.size(), 4u);
    EXPECT_EQ(res.unexplainedSdc, 0u);
    EXPECT_EQ(res.byClass[static_cast<size_t>(
                  RunClass::kSilentCorruption)],
              0u);
    EXPECT_EQ(res.byClass[static_cast<size_t>(
                  RunClass::kDetectedUnrecoverable)],
              0u);

    std::stringstream js;
    res.writeJson(js, opts);
    EXPECT_NE(js.str().find("\"summary\""), std::string::npos);
    EXPECT_NE(js.str().find("\"unexplainedSdc\": 0"),
              std::string::npos);
}

// ---- ECC cost shows up in the analytical models ---------------------

TEST(Resilience, EccAddsAreaAndPower)
{
    model::AreaModel area;
    ArchParams off = eccParams(false);
    ArchParams on = eccParams(true);
    EXPECT_GT(area.pmuArea(on.pmu), area.pmuArea(off.pmu));
    // 39/32 on a 90%-scratchpad unit: roughly a 20% PMU area adder.
    EXPECT_LT(area.pmuArea(on.pmu), area.pmuArea(off.pmu) * 1.35);
    EXPECT_GT(area.chipArea(on), area.chipArea(off));

    model::PowerModel power;
    EXPECT_GT(power.peak(on), power.peak(off));
}

/** @file Never-fail compilation: the mapper's demand check, capacity
 *  spilling, placement restarts and the diagnosed-error paths that
 *  replaced fatal aborts. Every way a user program can fail to map
 *  must come back as a structured CompileDiagnostics, and a spilled
 *  design must still validate bit-exactly. */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "apps/apps.hpp"
#include "base/profile.hpp"
#include "compiler/mapper.hpp"
#include "compiler/vleaf.hpp"
#include "pir/builder.hpp"
#include "runtime/runner.hpp"

using namespace plast;
using namespace plast::pir;
using namespace plast::compiler;

namespace
{

/** A tiled integer reduction whose single SRAM tile (1024 words) is
 *  N-buffered to the hinted metapipe depth of 8 — 8 KB words of
 *  scratchpad demand that a shrunken PMU cannot hold at full depth
 *  but fits fine at depth 4. */
Program
spillProgram(MemId *dramOut = nullptr)
{
    Builder b("spill");
    const int64_t tiles = 16, tileWords = 1024;
    MemId a = b.dram("a", tiles * tileWords);
    int32_t out = b.argOut();
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId iT = b.ctr("iT", 0, tiles);
    NodeId mp = b.outer("mp", CtrlScheme::kMetapipe, {iT}, root,
                        /*depthHint=*/8);
    MemId buf = b.sram("buf", tileWords);
    ExprId base =
        b.imul(b.ctrE(iT), b.immI(static_cast<int32_t>(tileWords)));
    b.loadTile("load", mp, a, buf, base, /*rows=*/16, /*rowWords=*/64,
               /*dramRowStride=*/64);
    CtrId jB = b.ctr("jB", 0, tileWords / 16);
    CtrId j = b.ctr("j", 0, 16, 1, true);
    ExprId v = b.load(buf, b.ima(b.ctrE(jB), b.immI(16), b.ctrE(j)));
    b.compute("sum", mp, {jB, j}, {}, {},
              {Builder::fold(FuOp::kIAdd, v, jB, out)});
    if (dramOut)
        *dramOut = a;
    return b.finish(root);
}

/** spillProgram() with its fold retargeted at the metapipe's counter
 *  iT, which the leaf does not own. validateProgram rejects it; the
 *  mapper, which skips validation, must fail to lower the leaf. */
Program
foldOutsideLeafProgram()
{
    Program prog = spillProgram();
    NodeId leaf = kNone;
    CtrId outerCtr = kNone;
    for (size_t n = 0; n < prog.nodes.size(); ++n) {
        if (prog.nodes[n].kind == NodeKind::kCompute)
            leaf = static_cast<NodeId>(n);
        if (prog.nodes[n].kind == NodeKind::kOuter &&
            !prog.nodes[n].ctrs.empty())
            outerCtr = prog.nodes[n].ctrs[0]; // the metapipe's iT
    }
    prog.nodes.at(leaf).sinks.at(0).foldLevel = outerCtr;
    return prog;
}

/** A root plus `nested` sequential outer controllers wrapped around
 *  one 16-iteration fold leaf: nested + 1 control boxes. */
Program
nestedOutersProgram(int nested)
{
    Builder b("nested");
    int32_t out = b.argOut();
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    NodeId parent = root;
    for (int k = 0; k < nested; ++k)
        parent = b.outer("o" + std::to_string(k), CtrlScheme::kSequential,
                         {}, parent);
    CtrId i = b.ctr("i", 0, 16, 1, true);
    b.compute("sum", parent, {i}, {}, {},
              {Builder::fold(FuOp::kIAdd, b.ctrE(i), i, out)});
    return b.finish(root);
}

/** A 1x2 unit grid: one PCU, one PMU and 2 x 3 = 6 switches. */
ArchParams
sixSwitchArch()
{
    ArchParams p = ArchParams::plasticineFinal();
    p.gridCols = 1;
    p.gridRows = 2;
    return p;
}

/** Final architecture with the scratchpad shrunk to 4096 words: one
 *  tile fits 4x over, the hinted 8 buffers do not. */
ArchParams
smallScratchArch()
{
    ArchParams p = ArchParams::plasticineFinal();
    p.pmu.bankKilobytes = 1; // 16 banks x 1 KB = 4096 words
    return p;
}

/** 4 banks x 1 KB scratchpads: tiny GEMM's tiles overflow twice. */
ArchParams
tinyScratchArch()
{
    ArchParams p = ArchParams::plasticineFinal();
    p.pmu.banks = 4;
    p.pmu.bankKilobytes = 1;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Demand check
// ---------------------------------------------------------------------

TEST(Precheck, RejectsOversizedDesignNamingTheBindingResource)
{
    // 32-way InnerProduct wants ~70 AGs / more PCUs than the chip has.
    apps::AppInstance app =
        apps::makeInnerProduct(apps::Scale::kTiny, 32);
    MapResult res =
        compileProgram(app.prog, ArchParams::plasticineFinal());
    EXPECT_FALSE(res.report.ok);
    const CompileDiagnostics &d = res.report.diag;
    ASSERT_FALSE(d.feasible);
    ASSERT_FALSE(d.binding.empty());
    // The binding resource is the first check that came back over,
    // with demand/capacity numbers a caller can act on; the error
    // describes it. The design never reached placement.
    bool found = false;
    for (const ResourceCheck &c : d.checks) {
        if (!c.over)
            continue;
        if (!found) {
            EXPECT_EQ(c.resource, d.binding);
            EXPECT_GT(c.demand, c.capacity);
            EXPECT_EQ(res.report.error, c.describe());
        }
        found = true;
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(d.attempts.empty());
}

TEST(Precheck, CapacityVerdictComesBeforeLeafErrors)
{
    // A leaf that fails to lower counts toward no resource. When the
    // rest of the design fits, its lowering error is the diagnosis and
    // no check is reported.
    Program prog = foldOutsideLeafProgram();
    MapResult fits = compileProgram(prog, ArchParams::plasticineFinal());
    ASSERT_FALSE(fits.report.ok);
    EXPECT_EQ(fits.report.diag.binding, "pcu.pipeline");
    EXPECT_EQ(fits.report.error, "sum: fold level is not a leaf counter");
    EXPECT_TRUE(fits.report.diag.checks.empty());

    // When the rest does not fit, the capacity verdict wins and the
    // failed leaf still adds nothing: no PCU, and `buf` needs only the
    // PMU its tile load writes.
    ArchParams noAgs = ArchParams::plasticineFinal();
    noAgs.numAgs = 0;
    MapResult over = compileProgram(prog, noAgs);
    ASSERT_FALSE(over.report.ok);
    const CompileDiagnostics &d = over.report.diag;
    EXPECT_EQ(d.binding, "ag");
    EXPECT_EQ(over.report.error, "ag: 1 needed, 0 available [OVER]");
    EXPECT_EQ(d.checks.size(), 9u);
    auto demandOf = [&](const std::string &res) -> uint64_t {
        for (const ResourceCheck &c : d.checks)
            if (c.resource == res)
                return c.demand;
        return ~0ull;
    };
    EXPECT_EQ(demandOf("pcu"), 0u);
    EXPECT_EQ(demandOf("pmu"), 1u);
}

TEST(Precheck, CountsOneControlBoxPerOuterController)
{
    // Eight outer controllers need eight boxes; six switches hold six.
    Runner r(nestedOutersProgram(7), sixSwitchArch());
    Status st = r.tryCompile();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCompileError);
    const CompileDiagnostics &d = r.mapResult().report.diag;
    EXPECT_EQ(d.binding, "box");
    EXPECT_TRUE(d.attempts.empty()) << "rejected before placement";
    bool found = false;
    for (const ResourceCheck &c : d.checks) {
        if (c.resource != "box")
            continue;
        found = true;
        EXPECT_EQ(c.demand, 8u);
        EXPECT_EQ(c.capacity, 6u);
        EXPECT_TRUE(c.over);
    }
    EXPECT_TRUE(found);

    // Six boxes on six switches fit, and the program maps.
    Runner fits(nestedOutersProgram(5), sixSwitchArch());
    EXPECT_TRUE(fits.tryCompile().ok())
        << fits.mapResult().report.error;
}

// ---------------------------------------------------------------------
// Capacity spilling
// ---------------------------------------------------------------------

TEST(Spill, ShrinksNBufferDepthUntilTheTileFits)
{
    Program prog = spillProgram();
    MapResult res = compileProgram(prog, smallScratchArch());
    ASSERT_TRUE(res.report.ok) << res.report.error;
    ASSERT_FALSE(res.report.diag.spills.empty());
    const SpillAction &sp = res.report.diag.spills.front();
    EXPECT_EQ(sp.memory, "buf");
    EXPECT_EQ(sp.node, "mp");
    EXPECT_EQ(sp.fromBufs, 8u);
    EXPECT_EQ(sp.toBufs, 4u); // 4096 words / 1024-word tile
    // The placed PMU really runs at the spilled depth.
    bool found = false;
    for (const PmuCfg &p : res.fabric.pmus) {
        if (p.used && p.name.find("buf") != std::string::npos) {
            EXPECT_LE(p.scratch.numBufs, 4);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Spill, DisallowedSpillFailsDiagnosed)
{
    Program prog = spillProgram();
    CompileOptions opts;
    opts.allowSpill = false;
    MapResult res =
        compileProgram(prog, smallScratchArch(), {}, opts);
    ASSERT_FALSE(res.report.ok);
    EXPECT_EQ(res.report.diag.binding, "pmu.scratchpad");
    EXPECT_NE(res.report.error.find("buf"), std::string::npos)
        << res.report.error;
}

TEST(Spill, SpilledDesignValidatesBitExact)
{
    // The metapipe throttle that accompanies the depth shrink keeps
    // generations from overrunning each other: the shrunken-fabric run
    // must match the reference evaluator bit for bit.
    MemId a = kNone;
    Program prog = spillProgram(&a);
    Runner r(prog, smallScratchArch());
    std::vector<Word> &dram = r.dram(a);
    for (size_t i = 0; i < dram.size(); ++i)
        dram[i] = intToWord(static_cast<int32_t>(i % 97) - 48);
    ASSERT_TRUE(r.tryCompile().ok());
    ASSERT_FALSE(r.report().diag.spills.empty());
    Runner::Result out;
    Status st = r.tryRunValidated(out);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(out.argOuts.at(0).size(), 16u) << "one sum per tile";
}

TEST(Spill, TwoRoundsShrinkGemmTilesAndValidateBitExact)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeGemm(apps::Scale::kTiny);
    Runner r(app.prog, tinyScratchArch());
    app.load(r);
    ASSERT_TRUE(r.tryCompile().ok()) << r.report().error;
    std::vector<std::string> spills;
    for (const SpillAction &sp : r.report().diag.spills)
        spills.push_back(strfmt("%s/%s %u->%u", sp.memory.c_str(),
                                sp.node.c_str(), sp.fromBufs, sp.toBufs));
    EXPECT_EQ(spills, (std::vector<std::string>{"aTile/kTiles 4->2",
                                                "bTile/kTiles 2->1"}));
    Runner::Result out;
    Status st = r.tryRunValidated(out);
    EXPECT_TRUE(st.ok()) << st.toString();
}

TEST(Spill, SpilledCompileRunsEachPassOnce)
{
    // Spilling is a depth fixpoint over one analysis: a compile that
    // spills twice still partitions, checks demand and generates
    // units once.
    setVerbose(false);
    apps::AppInstance app = apps::makeGemm(apps::Scale::kTiny);
    HostProfiler &prof = HostProfiler::instance();
    prof.setEnabled(true);
    const uint32_t tid = HostProfiler::currentTid();
    const uint64_t since = prof.nowUs();
    MapResult res = compileProgram(app.prog, tinyScratchArch());
    ASSERT_TRUE(res.report.ok) << res.report.error;
    ASSERT_EQ(res.report.diag.spills.size(), 2u);
    std::map<std::string, int> spans;
    for (const HostProfiler::Span &s : prof.spans())
        if (s.tid == tid && s.beginUs >= since)
            ++spans[s.name];
    EXPECT_EQ(spans["compile.partition"], 1);
    EXPECT_EQ(spans["compile.precheck"], 1);
    EXPECT_EQ(spans["compile.codegen"], 1);
    EXPECT_EQ(spans["compile.placeroute"], 1);
}

// ---------------------------------------------------------------------
// Diagnosed front-end errors (formerly fatal aborts)
// ---------------------------------------------------------------------

TEST(DiagnosedErrors, FoldLevelOutsideTheLeafIsACompileError)
{
    // Corrupt a valid program post-validation: retarget the fold at an
    // outer counter the leaf does not own. The mapper (which trusts
    // its caller and skips validateProgram) must diagnose, not abort.
    Program prog = foldOutsideLeafProgram();
    MapResult res =
        compileProgram(prog, ArchParams::plasticineFinal());
    ASSERT_FALSE(res.report.ok);
    EXPECT_EQ(res.report.diag.binding, "pcu.pipeline");
    EXPECT_NE(res.report.error.find("fold level"), std::string::npos)
        << res.report.error;

    // Through the runner the same program is caught even earlier, by
    // structural validation — still a Status, never a fatal.
    Runner r(prog, ArchParams::plasticineFinal());
    Status st = r.tryCompile();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kValidationError);
}

TEST(DiagnosedErrors, ScalarExprUnmappedCounter)
{
    Builder b("neg");
    CtrId c = b.ctr("outer", 0, 4);
    ExprId e = b.ctrE(c);
    uint8_t reg = 0;
    std::string err;
    lowerScalarExpr(b.program(), e, {}, {}, reg, err);
    EXPECT_NE(err.find("unmapped counter 'outer'"), std::string::npos)
        << err;
}

TEST(DiagnosedErrors, ScalarExprTooDeep)
{
    Builder b("neg");
    ExprId e = b.immI(1);
    for (uint32_t i = 0; i < kMaxLanes + 8; ++i)
        e = b.iadd(e, b.immI(1));
    uint8_t reg = 0;
    std::string err;
    lowerScalarExpr(b.program(), e, {}, {}, reg, err);
    EXPECT_NE(err.find("too deep"), std::string::npos) << err;
}

TEST(DiagnosedErrors, ScalarExprNonAddressKind)
{
    Builder b("neg");
    MemId m = b.sram("m", 64);
    ExprId e = b.load(m, b.immI(0));
    uint8_t reg = 0;
    std::string err;
    lowerScalarExpr(b.program(), e, {}, {}, reg, err);
    EXPECT_NE(err.find("may only use counters"), std::string::npos)
        << err;
}

TEST(DiagnosedErrors, TryCompileNamesTheBindingResource)
{
    apps::AppInstance app =
        apps::makeInnerProduct(apps::Scale::kTiny, 32);
    Runner r(app.prog);
    Status st = r.tryCompile();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCompileError);
    const CompileDiagnostics &d = r.mapResult().report.diag;
    EXPECT_FALSE(d.binding.empty());
    // The status message embeds the structured summary so callers
    // that only log strings still see the binding resource.
    EXPECT_NE(st.message().find(d.binding), std::string::npos)
        << st.message();
}

TEST(DiagnosedErrors, UnindexableArchIsACompileErrorNamingTheField)
{
    // Architectures no compile can index come back typed, naming the
    // field, before any analysis divides by or loops over them; the
    // capacity diagnoses of other degenerate headers stay as they were.
    setVerbose(false);
    apps::AppInstance app = apps::makeGemm(apps::Scale::kTiny);
    auto bindingOf = [&](auto edit) {
        ArchParams p = ArchParams::plasticineFinal();
        edit(p);
        MapResult res = compileProgram(app.prog, p);
        EXPECT_FALSE(res.report.ok);
        EXPECT_EQ(res.report.error.compare(0, res.report.diag.binding.size(),
                                           res.report.diag.binding),
                  0)
            << res.report.error;
        return res.report.diag.binding;
    };
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.dram.channels = 0; }),
              "dram.channels");
    EXPECT_EQ(bindingOf([](ArchParams &p) {
                  p.gridCols = 4000;
                  p.gridRows = 4000;
              }),
              "grid");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.gridCols = UINT32_MAX; }),
              "grid");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.numAgs = 70000; }), "numAgs");
    // Fields the compiler or simulator divides by, indexes with or
    // waits on: each crashed or deadlocked a compile or a run before it
    // was rejected here (zero PMU banks crashed BFS's compile).
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.dram.queueDepth = 0; }),
              "dram.queueDepth");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.coalescerCacheLines = 0; }),
              "coalescerCacheLines");
    EXPECT_EQ(
        bindingOf([](ArchParams &p) { p.coalescerMaxOutstanding = 0; }),
        "coalescerMaxOutstanding");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.dram.banksPerChannel = 0; }),
              "dram.banksPerChannel");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.dram.rowBytes = 0; }),
              "dram.rowBytes");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.pcu.lanes = 0; }),
              "pcu.lanes");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.pmu.banks = 0; }),
              "pmu.banks");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.pcu.lanes = kMaxLanes * 2; }),
              "pcu.lanes");

    EXPECT_EQ(bindingOf([](ArchParams &p) { p.numAgs = 0; }), "ag");
    EXPECT_EQ(bindingOf([](ArchParams &p) {
                  p.vectorTracks = 0;
                  p.scalarTracks = 0;
                  p.controlTracks = 0;
              }),
              "routing");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.pcu.stages = 0; }),
              "pcu.pipeline");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.pmu.stages = 0; }),
              "pmu.stages");
    EXPECT_EQ(bindingOf([](ArchParams &p) { p.pmu.bankKilobytes = 0; }),
              "pmu.scratchpad");
}

// ---------------------------------------------------------------------
// Placement restarts + diagnostics plumbing
// ---------------------------------------------------------------------

TEST(Restarts, UnroutableFabricExhaustsThePlacementBudget)
{
    // Find a benchmark the negotiated router cannot map on a one-track
    // fabric (the reduced-track sweep guarantees congestion); its
    // failure must record every placement attempt and the surviving
    // hotspots.
    ArchParams params = ArchParams::plasticineFinal();
    params.vectorTracks = 1;
    params.scalarTracks = 1;
    CompileOptions opts;
    opts.maxPlacementAttempts = 3;
    bool sawFailure = false;
    for (const auto &spec : apps::allApps()) {
        apps::AppInstance app = spec.make(apps::Scale::kTiny);
        MapResult res = compileProgram(app.prog, params, {}, opts);
        if (res.report.ok)
            continue;
        sawFailure = true;
        const CompileDiagnostics &d = res.report.diag;
        EXPECT_EQ(d.binding, "routing") << spec.name;
        EXPECT_EQ(d.placementAttempts, 3u) << spec.name;
        EXPECT_EQ(d.attempts.size(), 3u) << spec.name;
        EXPECT_FALSE(d.hotspots.empty()) << spec.name;
        break;
    }
    EXPECT_TRUE(sawFailure)
        << "every benchmark mapped on a one-track fabric?";
}

TEST(Restarts, ProvenUnroutableAttemptsSkipNegotiation)
{
    // Black-Scholes at one vector track: every placement puts more
    // vector groups through some switch side than its links carry, so
    // each attempt is proven unroutable before its first round.
    apps::AppInstance app = apps::makeBlackScholes(apps::Scale::kTiny);
    ArchParams params = ArchParams::plasticineFinal();
    params.vectorTracks = 1;
    MapResult res = compileProgram(app.prog, params);
    ASSERT_FALSE(res.report.ok);
    const CompileDiagnostics &d = res.report.diag;
    EXPECT_EQ(d.binding, "routing");
    EXPECT_EQ(d.placementAttempts, 4u);
    ASSERT_EQ(d.attempts.size(), 4u);
    for (const RouteAttempt &a : d.attempts) {
        EXPECT_EQ(a.rounds, 0u) << "attempt " << a.placement;
        EXPECT_FALSE(a.routed);
        EXPECT_FALSE(a.proof.empty()) << "attempt " << a.placement;
    }
    ASSERT_FALSE(d.hotspots.empty());
    for (const CongestionHotspot &h : d.hotspots) {
        EXPECT_EQ(h.kind, NetKind::kVector);
        EXPECT_EQ(h.capacity, 1u);
        EXPECT_GT(h.demand, h.capacity);
    }
    EXPECT_NE(res.report.error.find("proven unroutable"),
              std::string::npos)
        << res.report.error;
    EXPECT_NE(d.summary().find("attempt 3: proven unroutable: "),
              std::string::npos)
        << d.summary();
}

TEST(Restarts, MaskedDesignMapsOnALaterAttemptAndValidates)
{
    // What restarts are for: CNN at one vector track with three PCUs
    // and two PMUs masked off, as after hard faults. The deterministic
    // first placement does not route; a seeded restart does, and the
    // design it maps computes the reference's outputs bit for bit.
    apps::AppInstance app = apps::makeCnn(apps::Scale::kTiny);
    ArchParams params = ArchParams::plasticineFinal();
    params.vectorTracks = 1;
    const UnitMask mask{{9, 19, 40}, {43, 53}};
    CompileOptions once;
    once.maxPlacementAttempts = 1;
    EXPECT_FALSE(compileProgram(app.prog, params, mask, once).report.ok);

    Runner r(app.prog, params);
    r.setUnitMask(mask);
    app.load(r);
    Runner::Result res;
    Status st = r.tryRunValidated(res);
    ASSERT_TRUE(st.ok()) << st.message();
    const CompileDiagnostics &d = r.report().diag;
    EXPECT_EQ(d.placementAttempts, 2u);
    ASSERT_EQ(d.attempts.size(), 2u);
    EXPECT_FALSE(d.attempts[0].routed);
    EXPECT_TRUE(d.attempts[1].routed);
}

TEST(Diagnostics, JsonDumpCarriesTheSchema)
{
    apps::AppInstance app = apps::makeGemm(apps::Scale::kTiny);
    MapResult res =
        compileProgram(app.prog, ArchParams::plasticineFinal());
    ASSERT_TRUE(res.report.ok);
    std::ostringstream os;
    res.report.diag.dumpJson(os);
    const std::string j = os.str();
    for (const char *key :
         {"\"feasible\": true", "\"binding\"", "\"placementAttempts\"",
          "\"routeRounds\"", "\"routedHops\"", "\"vectorTrackUtil\"",
          "\"checks\"", "\"attempts\"", "\"hotspots\"", "\"spills\""})
        EXPECT_NE(j.find(key), std::string::npos) << key;
}

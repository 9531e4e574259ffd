/** @file Whole-program mapping: every benchmark compiles onto the
 *  final architecture, resources stay within the chip, placement and
 *  routing are legal and deterministic. */

#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "compiler/mapper.hpp"

using namespace plast;
using namespace plast::compiler;

namespace
{

MapResult
mapApp(const std::string &name)
{
    setVerbose(false);
    const apps::AppSpec *spec = apps::findApp(name);
    if (!spec) {
        ADD_FAILURE() << "unknown app " << name;
        return {};
    }
    apps::AppInstance app = spec->make(apps::Scale::kTiny);
    return compileProgram(app.prog, ArchParams::plasticineFinal());
}

} // namespace

class MapsEveryApp : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MapsEveryApp, FitsTheChip)
{
    ArchParams params;
    MapResult res = mapApp(GetParam());
    ASSERT_TRUE(res.report.ok) << res.report.error;
    EXPECT_GT(res.report.pcusUsed, 0u);
    EXPECT_LE(res.report.pcusUsed, params.numPcus());
    EXPECT_LE(res.report.pmusUsed, params.numPmus());
    EXPECT_LE(res.report.agsUsed, params.numAgs);
    EXPECT_GE(res.fabric.rootBox, 0);
    // Every routed channel got a placed-route latency.
    for (const ChannelCfg &ch : res.fabric.channels) {
        EXPECT_GE(ch.latency, 2u) << ch.describe();
        EXPECT_LT(ch.latency, 64u) << ch.describe();
    }
}

TEST_P(MapsEveryApp, ConfiguredUnitCountsMatchReport)
{
    MapResult res = mapApp(GetParam());
    ASSERT_TRUE(res.report.ok);
    EXPECT_EQ(res.fabric.usedPcus(), res.report.pcusUsed);
    EXPECT_EQ(res.fabric.usedPmus(), res.report.pmusUsed);
    EXPECT_EQ(res.fabric.usedAgs(), res.report.agsUsed);
}

TEST_P(MapsEveryApp, DeterministicMapping)
{
    MapResult a = mapApp(GetParam());
    MapResult b = mapApp(GetParam());
    EXPECT_EQ(a.report.pcusUsed, b.report.pcusUsed);
    EXPECT_EQ(a.report.channels, b.report.channels);
    EXPECT_EQ(a.report.routedHops, b.report.routedHops);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, MapsEveryApp,
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

TEST(Mapper, DramBuffersAreDisjointAndAligned)
{
    apps::AppInstance app = apps::makeGemm(apps::Scale::kTiny);
    MapResult res =
        compileProgram(app.prog, ArchParams::plasticineFinal());
    ASSERT_TRUE(res.report.ok);
    std::vector<std::pair<Addr, Addr>> ranges;
    for (size_t m = 0; m < app.prog.mems.size(); ++m) {
        if (app.prog.mems[m].kind != pir::MemKind::kDram)
            continue;
        Addr base = res.dramBase[m];
        EXPECT_EQ(base % kBurstBytes, 0u) << "unaligned buffer";
        ranges.push_back({base, base + app.prog.mems[m].sizeWords * 4});
    }
    for (size_t a = 0; a < ranges.size(); ++a) {
        for (size_t b2 = a + 1; b2 < ranges.size(); ++b2) {
            bool disjoint = ranges[a].second <= ranges[b2].first ||
                            ranges[b2].second <= ranges[a].first;
            EXPECT_TRUE(disjoint) << "DRAM buffers overlap";
        }
    }
}

TEST(Mapper, DuplicatesScratchpadsPerReader)
{
    // GDA reads the x tile twice (broadcast row + linear column) and
    // mu twice: each load gets its own PMU instance, all fed by the
    // single producer (the paper's duplication strategy).
    apps::AppInstance app = apps::makeGda(apps::Scale::kTiny);
    MapResult res =
        compileProgram(app.prog, ArchParams::plasticineFinal());
    ASSERT_TRUE(res.report.ok);
    int x_tiles = 0;
    for (const PmuCfg &p : res.fabric.pmus) {
        if (p.used && p.name.find("xTile") != std::string::npos)
            ++x_tiles;
    }
    EXPECT_EQ(x_tiles, 4) << "2 unrolled leaves x 2 access patterns";
}

TEST(Mapper, BlackScholesNeedsManyChainedPcus)
{
    // The ~60-stage pipeline must split across ~10+ PCUs per branch,
    // mirroring the paper's observation for its 80-stage pipeline.
    MapResult res = mapApp("Black-Scholes");
    ASSERT_TRUE(res.report.ok);
    EXPECT_GE(res.report.pcusUsed, 16u);
    EXPECT_EQ(res.report.pmusUsed, 0u)
        << "pure streaming: no on-chip tiles";
}

TEST(Mapper, MetapipeDoubleBuffersIntermediates)
{
    apps::AppInstance app = apps::makeGemm(apps::Scale::kTiny);
    MapResult res =
        compileProgram(app.prog, ArchParams::plasticineFinal());
    ASSERT_TRUE(res.report.ok);
    // C-tile accumulators sit under the (i,j) metapipe: 2 buffers.
    bool found = false;
    for (const PmuCfg &p : res.fabric.pmus) {
        if (p.used && p.name.find("cTile") != std::string::npos) {
            EXPECT_GE(p.scratch.numBufs, 2) << p.name;
            EXPECT_GT(p.write.clearEvery, 0u)
                << "accumulator must clear per generation";
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Mapper, RejectsProgramsTooLargeForTheChip)
{
    // 70 parallel branches of InnerProduct exceed 34 AGs.
    apps::AppInstance app =
        apps::makeInnerProduct(apps::Scale::kTiny, 32);
    MapResult res =
        compileProgram(app.prog, ArchParams::plasticineFinal());
    EXPECT_FALSE(res.report.ok);
    EXPECT_FALSE(res.report.error.empty());
}

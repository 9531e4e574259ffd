/** @file End-to-end: every Table 4 benchmark compiles, runs on the
 *  cycle simulator, and produces results bit-identical to the
 *  reference evaluator — plus scaling/parallelization invariants. */

#include <gtest/gtest.h>

#include "apps/apps.hpp"

using namespace plast;

namespace
{

Runner::Result
runValidated(apps::AppInstance app,
             ArchParams params = ArchParams::plasticineFinal())
{
    setVerbose(false);
    Runner r(std::move(app.prog), params);
    app.load(r);
    return r.runValidated();
}

} // namespace

class EndToEnd : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EndToEnd, FabricMatchesReferenceBitExactly)
{
    const apps::AppSpec *spec = apps::findApp(GetParam());
    ASSERT_NE(spec, nullptr) << "unknown benchmark";
    Runner::Result res = runValidated(spec->make(apps::Scale::kTiny));
    EXPECT_GT(res.cycles, 0u);
}

/** With an outstanding-burst budget of 2, long tile-load rows split
 *  into blocks that are not a multiple of the lane count (CNN's input
 *  rows among them); the scratchpad must still receive every word at
 *  its own address. */
TEST_P(EndToEnd, MatchesReferenceAtTwoOutstandingBursts)
{
    const apps::AppSpec *spec = apps::findApp(GetParam());
    ASSERT_NE(spec, nullptr) << "unknown benchmark";
    ArchParams params = ArchParams::plasticineFinal();
    params.coalescerMaxOutstanding = 2;
    Runner::Result res =
        runValidated(spec->make(apps::Scale::kTiny), params);
    EXPECT_GT(res.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, EndToEnd,
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

/** Parallelizing a fold must not change its (tree-ordered) result of
 *  each partial, and the combined result is the same combine tree —
 *  verified against the evaluator at every factor. */
class InnerProductPar : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(InnerProductPar, ValidatesAtEveryUnrollFactor)
{
    Runner::Result res =
        runValidated(apps::makeInnerProduct(apps::Scale::kTiny,
                                            GetParam()));
    EXPECT_GT(res.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Factors, InnerProductPar,
                         ::testing::Values(1u, 2u, 4u, 8u));

/** CNN at default scale loads 324-word input rows as two 162-word
 *  commands each, so its scratchpad write port walks the rows block by
 *  block. */
TEST(EndToEndExtra, CnnMatchesReferenceAtDefaultScale)
{
    const apps::AppSpec *cnn = apps::findApp("CNN");
    ASSERT_NE(cnn, nullptr);
    Runner::Result res = runValidated(cnn->make(apps::Scale::kDefault));
    EXPECT_GT(res.cycles, 0u);
}

TEST(EndToEndExtra, MoreParallelismIsNotSlower)
{
    setVerbose(false);
    auto run = [](uint32_t par) {
        apps::AppInstance app =
            apps::makeTpchQ6(apps::Scale::kTiny, par);
        Runner r(std::move(app.prog));
        app.load(r);
        return r.run().cycles;
    };
    Cycles c1 = run(1), c4 = run(4);
    // At tiny scale, startup overheads allow a small regression.
    EXPECT_LE(c4, c1 + c1 / 3)
        << "unrolling a bandwidth-bound filter must not hurt";
}

TEST(EndToEndExtra, StreamingHitsMostOfPeakBandwidth)
{
    setVerbose(false);
    apps::AppInstance app =
        apps::makeInnerProduct(apps::Scale::kTiny, 4);
    double bytes = app.dramBytes;
    Runner r(std::move(app.prog));
    app.load(r);
    Runner::Result res = r.run();
    double peak = ArchParams{}.dram.peakBytesPerCycle();
    double achieved = bytes / static_cast<double>(res.cycles);
    EXPECT_GT(achieved, 0.5 * peak)
        << "streaming fold should be memory-bound near peak";
}

TEST(EndToEndExtra, SparseCoalescingObserved)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeSmdv(apps::Scale::kTiny);
    Runner r(std::move(app.prog));
    app.load(r);
    Runner::Result res = r.run();
    EXPECT_GT(res.stats.get("mem.coalescedLanes"), 0u)
        << "the coalescing cache should merge same-line gather lanes";
}

TEST(EndToEndExtra, BfsVisitsExactlyTheReachableLayers)
{
    setVerbose(false);
    apps::AppInstance app = apps::makeBfs(apps::Scale::kTiny);
    Runner r(std::move(app.prog));
    app.load(r);
    r.runValidated();
    // Distances: layer l nodes reachable from node 0 get value l.
    std::vector<Word> dist = r.readDram(1); // "dist" is MemId 1
    EXPECT_EQ(wordToInt(dist[0]), 0);
    int visited = 0, unvisited = 0;
    for (Word w : dist)
        (wordToInt(w) >= 0 ? visited : unvisited)++;
    EXPECT_GT(visited, 1) << "the traversal must expand";
}

TEST(EndToEndExtra, GemmAgainstNaiveMatmul)
{
    // Independent check that the whole stack computes a real matmul
    // (not merely agreeing with the evaluator).
    setVerbose(false);
    apps::AppInstance app = apps::makeGemm(apps::Scale::kTiny);
    const int64_t m = 32, n = 64, p = 32;
    Runner r(std::move(app.prog));
    app.load(r);
    std::vector<float> A(m * n), B(n * p);
    for (int64_t i = 0; i < m * n; ++i)
        A[i] = wordToFloat(r.dram(0)[i]);
    for (int64_t i = 0; i < n * p; ++i)
        B[i] = wordToFloat(r.dram(1)[i]);
    r.run();
    std::vector<Word> C = r.readDram(2);
    // Compare with tolerance: the fabric accumulates in tree order.
    for (int64_t i = 0; i < m; i += 7) {
        for (int64_t j = 0; j < p; j += 5) {
            double ref = 0;
            for (int64_t k = 0; k < n; ++k)
                ref += static_cast<double>(A[i * n + k]) * B[k * p + j];
            EXPECT_NEAR(wordToFloat(C[i * p + j]), ref, 1e-3)
                << "C[" << i << "][" << j << "]";
        }
    }
}

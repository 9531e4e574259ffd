/** @file Benchmark-construction checks: analytic characteristics agree
 *  with the reference evaluator's instrumentation, and measured cycle
 *  counts stay inside regression envelopes. */

#include <gtest/gtest.h>

#include "apps/apps.hpp"

using namespace plast;

TEST(Apps, RegistryCoversTable4)
{
    EXPECT_EQ(apps::allApps().size(), 13u);
    int sparse = 0;
    for (const auto &s : apps::allApps())
        sparse += s.sparse;
    EXPECT_EQ(sparse, 3) << "SMDV, PageRank, BFS";
}

class AppAnalytics : public ::testing::TestWithParam<int>
{
};

TEST_P(AppAnalytics, FlopCountTracksEvaluator)
{
    setVerbose(false);
    const auto &spec = apps::allApps()[static_cast<size_t>(GetParam())];
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    Runner r(app.prog);
    app.load(r);
    double measured = static_cast<double>(r.referenceCounts().aluOps);
    // Analytic FLOP counts exclude address arithmetic; allow slack in
    // both directions but require the right order of magnitude.
    EXPECT_GT(measured, app.flops * 0.2) << spec.name;
    EXPECT_LT(measured, app.flops * 8.0 + 4096) << spec.name;
}

TEST_P(AppAnalytics, DramTrafficTracksEvaluator)
{
    setVerbose(false);
    const auto &spec = apps::allApps()[static_cast<size_t>(GetParam())];
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    Runner r(app.prog);
    app.load(r);
    const auto &c = r.referenceCounts();
    double measured =
        4.0 * static_cast<double>(c.dramWordsRead + c.dramWordsWritten);
    EXPECT_GT(measured, app.dramBytes * 0.2) << spec.name;
    EXPECT_LT(measured, app.dramBytes * 5.0 + 4096) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppAnalytics,
                         ::testing::Range(0, 13),
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

/** Cycle-count regression envelopes: catches accidental 2x slowdowns
 *  or impossibly fast (= broken timing) results at tiny scale. */
struct Envelope
{
    const char *name;
    Cycles lo, hi;
};

/** Prints the bounds only. The default printer dumps the struct's raw
 *  bytes, including the address of `name`, which gives the test a
 *  different listed name on every run. */
void PrintTo(const Envelope &env, std::ostream *os)
{
    *os << env.lo << ".." << env.hi << " cycles";
}

class CycleEnvelope : public ::testing::TestWithParam<Envelope>
{
};

TEST_P(CycleEnvelope, WithinRegressionBounds)
{
    setVerbose(false);
    Envelope env = GetParam();
    for (const auto &spec : apps::allApps()) {
        if (spec.name != env.name)
            continue;
        apps::AppInstance app = spec.make(apps::Scale::kTiny);
        Runner r(std::move(app.prog));
        app.load(r);
        Cycles c = r.run().cycles;
        EXPECT_GE(c, env.lo) << "suspiciously fast: timing broken?";
        EXPECT_LE(c, env.hi) << "performance regression";
        return;
    }
    FAIL();
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CycleEnvelope,
    ::testing::Values(Envelope{"InnerProduct", 300, 2200},
                      Envelope{"OuterProduct", 4000, 14000},
                      Envelope{"Black-Scholes", 400, 2500},
                      Envelope{"TPC-H Query 6", 600, 3500},
                      Envelope{"GEMM", 1200, 7000},
                      Envelope{"GDA", 2000, 11000},
                      Envelope{"LogReg", 1300, 7500},
                      Envelope{"SGD", 1800, 10000},
                      Envelope{"Kmeans", 1400, 8000},
                      Envelope{"CNN", 450, 2600},
                      Envelope{"SMDV", 350, 1900},
                      Envelope{"PageRank", 500, 2800},
                      Envelope{"BFS", 550, 3100}),
    [](const ::testing::TestParamInfo<Envelope> &info) {
        std::string n = info.param.name;
        for (char &ch : n) {
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return n;
    });

/** @file Observability: trace-sink mechanics, Chrome-JSON export,
 *  per-unit cycle-accounting invariants, stats export and the
 *  bottleneck report. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "base/trace.hpp"
#include "runtime/bottleneck.hpp"
#include "runtime/runner.hpp"

using namespace plast;

namespace
{

// ---- minimal JSON syntax checker ----------------------------------
// Validates full JSON syntax (the CI job cross-checks with python3);
// returns false on any violation.

struct JsonChecker
{
    const std::string &s;
    size_t i = 0;

    explicit JsonChecker(const std::string &text) : s(text) {}

    void
    ws()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (s.compare(i, n, lit) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i] == '+' ||
                s[i] == '-'))
            ++i;
        return i > start;
    }

    bool
    value()
    {
        ws();
        if (i >= s.size())
            return false;
        char c = s[i];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        if (s[i] != '{')
            return false;
        ++i;
        ws();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (i >= s.size() || s[i] != ':')
                return false;
            ++i;
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        ws();
        if (i >= s.size() || s[i] != '}')
            return false;
        ++i;
        return true;
    }

    bool
    array()
    {
        if (s[i] != '[')
            return false;
        ++i;
        ws();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        ws();
        if (i >= s.size() || s[i] != ']')
            return false;
        ++i;
        return true;
    }

    bool
    document()
    {
        bool ok = value();
        ws();
        return ok && i == s.size();
    }
};

bool
jsonWellFormed(const std::string &text)
{
    JsonChecker c(text);
    return c.document();
}

size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t p = hay.find(needle); p != std::string::npos;
         p = hay.find(needle, p + needle.size()))
        ++n;
    return n;
}

struct AppRun
{
    Cycles cycles = 0;    ///< root-completion cycle (Result.cycles)
    Cycles simCycles = 0; ///< fabric clock incl. post-completion drain
    StatSet stats;
    std::string traceJson;
    std::string utilCsv;
    std::vector<TraceSink::Event> events;
    std::vector<std::string> tracks;
    std::vector<std::pair<std::string, CycleAcct>> accts;
    BottleneckReport report;
};

const apps::AppSpec &
appByName(const std::string &name)
{
    const apps::AppSpec *spec = apps::findApp(name);
    if (!spec)
        ADD_FAILURE() << "unknown app " << name;
    return spec ? *spec : apps::allApps()[0];
}

AppRun
runTraced(const std::string &name, Engine engine, bool tracing = true)
{
    setVerbose(false);
    const apps::AppSpec &spec = appByName(name);
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    SimOptions opts;
    opts.engine = engine;
    opts.trace.enabled = tracing;
    Runner runner(app.prog, ArchParams::plasticineFinal(), opts);
    app.load(runner);
    Runner::Result res = runner.run();

    AppRun out;
    out.cycles = res.cycles;
    out.stats = res.stats;
    const Fabric *fab = runner.fabric();
    out.simCycles = fab->now();
    if (tracing) {
        std::ostringstream os, csv;
        fab->writeTrace(os);
        out.traceJson = os.str();
        fab->writeUtilizationCsv(csv);
        out.utilCsv = csv.str();
        fab->trace()->forEach(
            [&](const TraceSink::Event &e) { out.events.push_back(e); });
        out.tracks = fab->trace()->tracks();
        out.report = analyzeBottlenecks(*fab);
    }
    // Unused fabric slots have no sim object; collect only live units.
    for (const SimUnit *u : fab->units())
        out.accts.emplace_back(u->ref().describe(), u->ledger(fab->now()));
    EXPECT_FALSE(out.accts.empty());
    return out;
}

/** Each unit's settled ledger classifies every cycle of the fabric
 *  clock exactly once, and counts each evaluated cycle in its class. */
void
checkAccounting(const AppRun &run, const std::string &ctx)
{
    for (const auto &[label, a] : run.accts) {
        uint64_t sum = 0;
        for (size_t c = 0; c < kNumCycleClasses; ++c) {
            sum += a.by[c];
            EXPECT_LE(a.steppedBy[c], a.by[c])
                << ctx << " " << label << " "
                << cycleClassName(static_cast<CycleClass>(c));
        }
        EXPECT_EQ(sum, run.simCycles)
            << ctx << " " << label << ": active + stalls + idle == total";
    }
}

void
checkSpansNest(const AppRun &run, const std::string &ctx)
{
    // Complete ("X") spans on one track must not overlap — that is the
    // contract that lets viewers nest them by containment.
    std::map<uint16_t, std::vector<std::pair<Cycles, Cycles>>> per_track;
    for (const auto &e : run.events) {
        if (e.kind == TraceSink::Kind::kSpan)
            per_track[e.track].emplace_back(e.ts, e.ts + e.aux);
    }
    for (auto &[track, spans] : per_track) {
        std::sort(spans.begin(), spans.end());
        for (size_t i = 0; i + 1 < spans.size(); ++i) {
            EXPECT_LE(spans[i].second, spans[i + 1].first)
                << ctx << ": overlapping spans on track " << track << " ("
                << run.tracks[track] << ")";
        }
        for (const auto &[b, e] : spans)
            EXPECT_LT(b, e) << ctx << ": empty/negative span";
    }
}

} // namespace

// ---- TraceSink mechanics ------------------------------------------

TEST(TraceSink, RingWrapsAndCountsDrops)
{
    TraceSink sink(4);
    uint16_t t = sink.addTrack("t");
    for (Cycles c = 0; c < 10; ++c)
        sink.instant(t, TraceName::kTokens, c);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    std::vector<Cycles> ts;
    sink.forEach([&](const TraceSink::Event &e) { ts.push_back(e.ts); });
    ASSERT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts.front(), 6u) << "oldest retained";
    EXPECT_EQ(ts.back(), 9u) << "newest retained";
}

TEST(TraceSink, ChromeJsonWellFormed)
{
    TraceSink sink(64);
    uint16_t a = sink.addTrack("unit a");
    uint16_t b = sink.addTrack("stream \"b\"\\x");
    sink.span(a, TraceName::kRun, 5, 17);
    sink.async(a, TraceName::kWavefront, 6, 9, 1);
    sink.async(a, TraceName::kWavefront, 7, 12, 2);
    sink.instant(a, TraceName::kDone, 17);
    sink.counter(b, TraceName::kOccupancy, 3, 7);
    std::ostringstream os;
    sink.writeChromeJson(os);
    std::string json = os.str();
    EXPECT_TRUE(jsonWellFormed(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // Track names are escaped, not emitted raw.
    EXPECT_EQ(json.find("stream \"b\""), std::string::npos);
}

TEST(TraceSink, EmitHelpersNullSafe)
{
    traceSpan(nullptr, 0, TraceName::kRun, 0, 1);
    traceAsync(nullptr, 0, TraceName::kWavefront, 0, 1, 1);
    traceInstant(nullptr, 0, TraceName::kDone, 0);
    traceCounter(nullptr, 0, TraceName::kOccupancy, 0, 0);
}

// ---- end-to-end observability on the benchmark apps ----------------

class TracedApp : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TracedApp, AccountingInvariantActivityMode)
{
    AppRun run = runTraced(GetParam(), Engine::kProduction);
    checkAccounting(run, std::string(GetParam()) + "/activity");
}

TEST_P(TracedApp, AccountingInvariantDenseMode)
{
    AppRun run = runTraced(GetParam(), Engine::kOracle);
    checkAccounting(run, std::string(GetParam()) + "/dense");
    // The oracle evaluates every unit every cycle: nothing sleeps.
    for (const auto &[label, a] : run.accts)
        EXPECT_EQ(a.steppedBy, a.by) << label;
}

TEST_P(TracedApp, TraceJsonAndSpans)
{
    AppRun run = runTraced(GetParam(), Engine::kProduction);
    EXPECT_TRUE(jsonWellFormed(run.traceJson)) << GetParam();
    EXPECT_FALSE(run.events.empty());
    EXPECT_GT(countOccurrences(run.traceJson, "\"ph\":\"X\""), 0u)
        << "unit run spans present";
    checkSpansNest(run, GetParam());
    for (const auto &e : run.events)
        ASSERT_LT(e.track, run.tracks.size()) << "event on unknown track";
}

TEST_P(TracedApp, TracingDoesNotPerturbCycles)
{
    AppRun off = runTraced(GetParam(), Engine::kProduction,
                           /*tracing=*/false);
    AppRun on =
        runTraced(GetParam(), Engine::kProduction, /*tracing=*/true);
    EXPECT_EQ(off.cycles, on.cycles) << GetParam();
}

TEST_P(TracedApp, UtilizationCsvAndReport)
{
    AppRun run = runTraced(GetParam(), Engine::kProduction);
    ASSERT_FALSE(run.utilCsv.empty());
    EXPECT_EQ(run.utilCsv.rfind("cycle,active,", 0), 0u)
        << "CSV header first";
    EXPECT_GT(countOccurrences(run.utilCsv, "\n"), 1u) << "data rows";

    EXPECT_EQ(run.report.cycles, run.simCycles);
    EXPECT_FALSE(run.report.units.empty());
    EXPECT_FALSE(run.report.blamePath.empty());
    EXPECT_FALSE(run.report.critical.empty());
    std::string rendered = run.report.render();
    EXPECT_NE(rendered.find("Critical:"), std::string::npos);
    EXPECT_NE(rendered.find("Blame path:"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Apps, TracedApp,
                         ::testing::Values("InnerProduct", "GEMM",
                                           "PageRank", "Kmeans"));

// ---- stats export --------------------------------------------------

TEST(Stats, DumpJsonWellFormed)
{
    AppRun run = runTraced("InnerProduct", Engine::kProduction, false);
    std::ostringstream os;
    run.stats.writeJson(os);
    EXPECT_TRUE(jsonWellFormed(os.str())) << os.str();
    EXPECT_NE(os.str().find("\"cycles\""), std::string::npos);
}

TEST(Stats, DumpStatsIdempotent)
{
    setVerbose(false);
    const apps::AppSpec &spec = appByName("InnerProduct");
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    Runner runner(app.prog);
    app.load(runner);
    runner.run();
    const Fabric *fab = runner.fabric();
    ASSERT_NE(fab, nullptr);
    StatSet twice, once;
    fab->dumpStats(twice);
    fab->dumpStats(twice); // second dump must not double-count anything
    fab->dumpStats(once);
    EXPECT_EQ(twice.all(), once.all());
}

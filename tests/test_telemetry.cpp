/** @file Unified telemetry: metrics-registry semantics (histogram
 *  bucket edges, counter wrap, expositions), host-phase profiling
 *  spans and the merged Perfetto timeline, and RunManifest schema
 *  stability. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "base/stats.hpp"
#include "base/trace.hpp"
#include "runtime/manifest.hpp"
#include "runtime/runner.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

using namespace plast;

// ---- Histogram ------------------------------------------------------

TEST(Histogram, ValueOnEdgeBelongsToThatBucket)
{
    Histogram h({10, 20, 30});
    h.observe(10); // exactly on edge 0
    h.observe(11); // first bucket with 11 <= edge -> edge 20
    h.observe(20); // exactly on edge 1
    h.observe(30); // exactly on edge 2
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 0u); // overflow empty
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 71u);
}

TEST(Histogram, OverflowBucketCatchesAboveLastEdge)
{
    Histogram h({10, 20});
    h.observe(21);
    h.observe(1000);
    EXPECT_EQ(h.buckets()[0], 0u);
    EXPECT_EQ(h.buckets()[1], 0u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, ZeroLandsInFirstBucket)
{
    Histogram h({0, 5});
    h.observe(0);
    EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(Histogram, EmptyEdgesIsPureCountSum)
{
    Histogram h(std::vector<uint64_t>{});
    h.observe(7);
    h.observe(9);
    ASSERT_EQ(h.buckets().size(), 1u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.sum(), 16u);
}

TEST(Histogram, CumulativeCountsAreMonotone)
{
    Histogram h({1, 2, 4});
    for (uint64_t v : {0u, 1u, 2u, 3u, 4u, 5u})
        h.observe(v);
    EXPECT_EQ(h.cumulative(0), 2u); // 0, 1
    EXPECT_EQ(h.cumulative(1), 3u); // + 2
    EXPECT_EQ(h.cumulative(2), 5u); // + 3, 4
    EXPECT_EQ(h.count(), 6u);       // + overflow (5)
}

// ---- StatSet --------------------------------------------------------

TEST(StatSet, CounterIncrementsWrapModulo64)
{
    StatSet reg;
    reg.set("c", ~0ull);
    reg.add("c", 2); // wraps: 2^64 - 1 + 2 == 1 (mod 2^64)
    EXPECT_EQ(reg.get("c"), 1u);
}

TEST(StatSet, GaugeLastWriteWins)
{
    StatSet reg;
    reg.gauge("g", 5);
    reg.gauge("g", -3);
    EXPECT_EQ(reg.gaugeValue("g"), -3);
    EXPECT_EQ(reg.gaugeValue("missing"), 0);
}

TEST(StatSet, HistogramGetOrCreateIsStable)
{
    StatSet reg;
    Histogram &a = reg.histogram("h", {1, 2});
    a.observe(1);
    Histogram &b = reg.histogram("h", {1, 2});
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.findHistogram("h")->count(), 1u);
    EXPECT_EQ(reg.findHistogram("nope"), nullptr);
}

TEST(StatSet, JsonExpositionGolden)
{
    StatSet reg;
    reg.add("b.counter", 3);
    reg.gauge("a.gauge", -2);
    Histogram &h = reg.histogram("lat", {10, 20});
    h.observe(5);
    h.observe(15);
    h.observe(99);
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_EQ(os.str(), "{\n"
                        "  \"a.gauge\": -2,\n"
                        "  \"b.counter\": 3,\n"
                        "  \"lat.bucket.le_10\": 1,\n"
                        "  \"lat.bucket.le_20\": 1,\n"
                        "  \"lat.bucket.overflow\": 1,\n"
                        "  \"lat.count\": 3,\n"
                        "  \"lat.sum\": 119\n"
                        "}\n");
}

TEST(StatSet, JsonMetaStringsComeFirstThenSortedMetrics)
{
    // The bench files' provenance strings lead, in the order given,
    // even where a metric key sorts before "meta." ("BFS" < "meta").
    StatSet reg;
    reg.set("zeta", 2);
    reg.set("BFS.hops", 7);
    std::ostringstream os;
    reg.writeJson(os, {{"meta.bench", "b\"q"}, {"meta.arch", "a"}});
    EXPECT_EQ(os.str(), "{\n"
                        "  \"meta.bench\": \"b\\\"q\",\n"
                        "  \"meta.arch\": \"a\",\n"
                        "  \"BFS.hops\": 7,\n"
                        "  \"zeta\": 2\n"
                        "}\n");
}

TEST(StatSet, PrometheusExpositionGolden)
{
    StatSet reg;
    reg.add("compile.route.rounds", 4);
    reg.gauge("fabric.pcus", 64);
    Histogram &h = reg.histogram("span.us", {10});
    h.observe(3);
    h.observe(50);
    std::ostringstream os;
    reg.writePrometheus(os);
    EXPECT_EQ(os.str(),
              "# TYPE plast_compile_route_rounds counter\n"
              "plast_compile_route_rounds 4\n"
              "# TYPE plast_fabric_pcus gauge\n"
              "plast_fabric_pcus 64\n"
              "# TYPE plast_span_us histogram\n"
              "plast_span_us_bucket{le=\"10\"} 1\n"
              "plast_span_us_bucket{le=\"+Inf\"} 2\n"
              "plast_span_us_sum 53\n"
              "plast_span_us_count 2\n");
}

TEST(StatSet, ServeStoreCountersAreExposedInBothFormats)
{
    // The persistent-store counters (DESIGN.md §17) ride the same
    // registry as every other serve.* metric: one warm-restart pair
    // of runs must surface writes on the cold pass and hits on the
    // warm pass, in both the flat-JSON and Prometheus expositions.
    char tmpl[] = "/tmp/plast-telemetry-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);

    serve::TrafficOptions t;
    t.uniques = 2;
    t.jobs = 4;
    serve::ServeOptions o;
    o.workers = 2;
    o.storeDir = std::string(dir) + "/store";

    auto runOnce = [&](StatSet &reg) {
        serve::Server server(o);
        server.start();
        for (serve::JobSpec &s : serve::makeTraffic(t))
            server.submit(std::move(s));
        server.drain();
        server.exportMetrics(reg);
    };
    StatSet cold, warm;
    runOnce(cold);
    runOnce(warm);

    EXPECT_EQ(cold.get("serve.store.writes"), t.uniques);
    EXPECT_EQ(cold.get("serve.store.hits"), 0u);
    EXPECT_EQ(warm.get("serve.store.hits"), t.uniques);
    EXPECT_EQ(warm.get("serve.store.misses"), 0u);
    for (const char *key :
         {"serve.store.hits", "serve.store.misses", "serve.store.writes",
          "serve.store.write_failures", "serve.store.corrupt_quarantined",
          "serve.store.evicted", "serve.store.fallback",
          "serve.store.records", "serve.store.bytes"})
        EXPECT_TRUE(warm.has(key)) << key;

    std::ostringstream js, prom;
    warm.writeJson(js);
    warm.writePrometheus(prom);
    EXPECT_NE(js.str().find("\"serve.store.hits\": 2"),
              std::string::npos)
        << js.str();
    EXPECT_NE(prom.str().find("plast_serve_store_hits 2"),
              std::string::npos);
    EXPECT_NE(prom.str().find("# TYPE plast_serve_store_hits counter"),
              std::string::npos);

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(StatSet, ClearEmptiesEverything)
{
    StatSet reg;
    reg.add("c");
    reg.gauge("g", 1);
    reg.histogram("h", {1}).observe(1);
    reg.clear();
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_EQ(os.str(), "{\n}\n");
}

// ---- HostProfiler ---------------------------------------------------

TEST(HostProfiler, ScopedSpanRecordsAndTotalsAccumulate)
{
    HostProfiler &prof = HostProfiler::instance();
    prof.clear();
    { ScopedSpan s("test.phase"); }
    { ScopedSpan s("test.phase"); }
    auto spans = prof.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "test.phase");
    EXPECT_LE(spans[0].beginUs, spans[0].endUs);
    auto totals = prof.totalsUs();
    EXPECT_EQ(totals.count("test.phase"), 1u);
    prof.clear();
    EXPECT_TRUE(prof.spans().empty());
    EXPECT_EQ(prof.dropped(), 0u);
}

TEST(HostProfiler, DisabledSpansRecordNothing)
{
    HostProfiler &prof = HostProfiler::instance();
    prof.clear();
    prof.setEnabled(false);
    { ScopedSpan s("test.off"); }
    prof.setEnabled(true);
    EXPECT_TRUE(prof.spans().empty());
}

TEST(HostProfiler, HostSpanJsonFragmentsAreWellFormed)
{
    HostProfiler &prof = HostProfiler::instance();
    prof.clear();
    { ScopedSpan s("test.json"); }
    std::ostringstream os;
    writeHostSpansJson(os, prof);
    std::string out = os.str();
    EXPECT_NE(out.find("\"name\":\"host (wall-clock us)\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"test.json\",\"pid\":2"),
              std::string::npos);
    // Fragments splice after an existing event: must start with ",".
    EXPECT_EQ(out.rfind(",\n{", 0), 0u);
    prof.clear();
}

// ---- merged Perfetto timeline --------------------------------------

TEST(Telemetry, TraceMergesHostSpansWithSimCycles)
{
    setVerbose(false);
    HostProfiler::instance().clear();
    apps::AppInstance app = apps::allApps()[0].make(apps::Scale::kTiny);
    SimOptions opts;
    opts.trace.enabled = true;
    Runner runner(app.prog, ArchParams::plasticineFinal(), opts);
    app.load(runner);
    runner.run();
    std::ostringstream os;
    runner.fabric()->writeTrace(os);
    std::string out = os.str();
    // One JSON document, two Perfetto "processes": the fabric's
    // simulated-cycle events (pid 1) and the host phases (pid 2).
    EXPECT_NE(out.find("\"name\":\"fabric (simulated cycles as us)\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"host (wall-clock us)\""),
              std::string::npos);
    // The instrumented phases all made it onto the host track.
    for (const char *phase : {"compile", "compile.placeroute",
                              "host.build-fabric", "sim.run"}) {
        EXPECT_NE(out.find(std::string("\"name\":\"") + phase +
                           "\",\"pid\":2"),
                  std::string::npos)
            << "missing host span " << phase;
    }
    // Document closes the traceEvents array and the outer object.
    EXPECT_NE(out.find("\n],\"displayTimeUnit\""), std::string::npos);
    EXPECT_EQ(out.substr(out.size() - 3), "}}\n");
}

// ---- RunManifest ----------------------------------------------------

TEST(RunManifest, SerializationIsByteStableAndOrdered)
{
    setVerbose(false);
    // Freeze host timings so two serializations are byte-identical.
    HostProfiler &prof = HostProfiler::instance();
    prof.clear();
    prof.setEnabled(false);

    apps::AppInstance app = apps::allApps()[0].make(apps::Scale::kTiny);
    Runner runner(app.prog, ArchParams::plasticineFinal());
    app.load(runner);
    Runner::Result res = runner.run();
    RunManifest m = runner.buildManifest(res);
    prof.setEnabled(true);

    std::ostringstream a, b;
    m.writeJson(a);
    m.writeJson(b);
    EXPECT_EQ(a.str(), b.str());

    // Fixed top-level key order: every later key appears after the
    // earlier one (golden order; add keys, never reorder).
    const char *order[] = {"\"schema\"",     "\"program\"",
                           "\"pir_hash\"",   "\"arch_hash\"",
                           "\"config_hash\"", "\"seed\"",
                           "\"sched_mode\"", "\"sim_mode\"",
                           "\"arch\"",       "\"compile\"",
                           "\"outcome\"",    "\"cycles\"",
                           "\"timings_us\"", "\"metrics\""};
    size_t prev = 0;
    for (const char *key : order) {
        size_t at = a.str().find(key);
        ASSERT_NE(at, std::string::npos) << "missing key " << key;
        EXPECT_GT(at, prev) << key << " out of order";
        prev = at;
    }
    EXPECT_NE(a.str().find("\"schema\": \"plast.run-manifest.v1\""),
              std::string::npos);
    EXPECT_NE(a.str().find("\"outcome\": \"ok\""), std::string::npos);
    EXPECT_EQ(m.compiled, true);
    EXPECT_NE(m.pirHash, 0u);
    EXPECT_NE(m.archHash, 0u);
    EXPECT_NE(m.configHash, 0u);
    EXPECT_EQ(m.cycles, res.cycles);
    EXPECT_FALSE(m.metrics.empty());
}

TEST(RunManifest, NamesEachEngineByItsSchedulerAndDatapath)
{
    setVerbose(false);
    apps::AppInstance app = apps::allApps()[0].make(apps::Scale::kTiny);
    auto json = [&](Engine engine) {
        SimOptions so;
        so.engine = engine;
        Runner r(app.prog, ArchParams::plasticineFinal(), so);
        std::ostringstream os;
        r.buildManifest({}).writeJson(os);
        return os.str();
    };
    const std::string production = json(Engine::kProduction);
    const std::string oracle = json(Engine::kOracle);
    EXPECT_NE(production.find("\"sched_mode\": \"activity\",\n"
                              "  \"sim_mode\": \"specialized\",\n"),
              std::string::npos)
        << production;
    EXPECT_NE(oracle.find("\"sched_mode\": \"dense\",\n"
                          "  \"sim_mode\": \"interp\",\n"),
              std::string::npos)
        << oracle;
}

TEST(RunManifest, HashesAreContentAddresses)
{
    setVerbose(false);
    apps::AppInstance a1 = apps::allApps()[0].make(apps::Scale::kTiny);
    apps::AppInstance a2 = apps::allApps()[0].make(apps::Scale::kTiny);
    apps::AppInstance other =
        apps::allApps()[1].make(apps::Scale::kTiny);

    Runner r1(a1.prog, ArchParams::plasticineFinal());
    Runner r2(a2.prog, ArchParams::plasticineFinal());
    Runner r3(other.prog, ArchParams::plasticineFinal());
    ASSERT_TRUE(r1.tryCompile().ok());
    ASSERT_TRUE(r2.tryCompile().ok());
    ASSERT_TRUE(r3.tryCompile().ok());

    RunManifest m1 = r1.buildManifest({});
    RunManifest m2 = r2.buildManifest({});
    RunManifest m3 = r3.buildManifest({});
    EXPECT_EQ(m1.pirHash, m2.pirHash);
    EXPECT_EQ(m1.configHash, m2.configHash);
    EXPECT_EQ(m1.archHash, m3.archHash); // same params
    EXPECT_NE(m1.pirHash, m3.pirHash);   // different program
}

TEST(RunManifest, Fnv1a64MatchesReferenceVectors)
{
    // Published FNV-1a test vectors (64-bit): if these move, every
    // cache address and manifest hash in the repo moves with them.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
    // The incremental hasher is the same function: a terminated string
    // and little-endian words are their bytes.
    Fnv1a f;
    f.str("foo");
    f.u32(0x00726162u); // "bar\0"
    EXPECT_EQ(f.h, fnv1a64(std::string("foo\0bar\0", 8)));
}

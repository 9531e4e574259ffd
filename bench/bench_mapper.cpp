/**
 * @file
 * Compile-pipeline QoR benchmark: maps the 13 evaluation benchmarks
 * with the negotiated-congestion (PathFinder) router and reports
 * compile time, routed hop counts, route rounds and switch-track
 * utilization per benchmark.
 *
 * A second leg compiles every benchmark at one vector track (the
 * starved point of the compile sweep), where some designs are
 * rejected. Per app it reports `rejected`, routed hops, route rounds
 * summed over all placement attempts, attempts and compile time. A
 * rejection without a binding resource is a compiler bug, and the run
 * exits nonzero. CI gates every key against the committed
 * BENCH_mapper.json with bench_compare (counters exactly,
 * `*compile_us` as wall-clock).
 *
 * A third leg compiles every benchmark on 4-bank x 1 KB scratchpads,
 * where tiles overflow their N-buffers and the compiler spills (caps
 * metapipe depths) or rejects with `pmu.scratchpad`. Per app it
 * reports the spill actions, `rejected`, routed hops and compile time.
 *
 *   bench_mapper [--tiny] [--stats-json=PATH]
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "base/stats.hpp"
#include "common.hpp"
#include "compiler/mapper.hpp"

using namespace plast;

namespace
{

struct CompileSample
{
    compiler::MapResult map;
    double micros = 0;
};

CompileSample
timedCompile(const pir::Program &prog, const ArchParams &params)
{
    auto t0 = std::chrono::steady_clock::now();
    CompileSample s;
    s.map = compiler::compileProgram(prog, params);
    auto dt = std::chrono::steady_clock::now() - t0;
    s.micros = std::chrono::duration_cast<std::chrono::microseconds>(dt)
                   .count();
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    bool tiny = false;
    std::string json_path;
    if (auto rc = bench::flags("bench_mapper", json_path, &tiny)
                      .parse(argc, argv))
        return *rc;
    apps::Scale scale = tiny ? apps::Scale::kTiny : apps::Scale::kDefault;
    ArchParams params = ArchParams::plasticineFinal();
    StatSet json_stats;

    std::printf("=== Mapper QoR: negotiated congestion ===\n");
    std::printf("%-14s | %9s | %7s | %6s | %5s %5s %5s\n", "benchmark",
                "negot_us", "n_hops", "rounds", "vec%", "scl%", "ctl%");

    for (const auto &spec : apps::allApps()) {
        apps::AppInstance app = spec.make(scale);
        CompileSample n = timedCompile(app.prog, params);
        fatal_if(!n.map.report.ok, "%s: compile failed: %s",
                 app.name.c_str(), n.map.report.error.c_str());
        const auto &nd = n.map.report;

        std::printf("%-14s | %9.0f | %7llu | %6u | %5.1f %5.1f %5.1f\n",
                    app.name.c_str(), n.micros,
                    static_cast<unsigned long long>(nd.routedHops),
                    nd.diag.routeRounds,
                    100.0 * nd.diag.vectorTrackUtil,
                    100.0 * nd.diag.scalarTrackUtil,
                    100.0 * nd.diag.controlTrackUtil);

        if (!json_path.empty()) {
            auto put = [&](const std::string &k, uint64_t v) {
                json_stats.set(app.name + ".negotiated." + k, v);
            };
            put("compile_us", static_cast<uint64_t>(n.micros));
            put("routedHops", nd.routedHops);
            put("routeRounds", nd.diag.routeRounds);
            put("placementAttempts", nd.diag.placementAttempts);
            // Utilizations as basis points (StatSet holds integers).
            put("vectorTrackBp",
                static_cast<uint64_t>(nd.diag.vectorTrackUtil * 1e4));
            put("scalarTrackBp",
                static_cast<uint64_t>(nd.diag.scalarTrackUtil * 1e4));
            put("controlTrackBp",
                static_cast<uint64_t>(nd.diag.controlTrackUtil * 1e4));
        }
    }

    std::printf("\nNotes: compiles run the full pipeline; hops are "
                "summed routed switch-to-switch links.\n");

    // One vector track: rejections must be typed.
    ArchParams starved = params;
    starved.vectorTracks = 1;
    std::printf("\n=== Negotiated routing at %u vector track ===\n",
                starved.vectorTracks);
    std::printf("%-14s | %9s | %8s | %7s | %6s | %8s\n", "benchmark",
                "negot_us", "rejected", "n_hops", "rounds", "attempts");
    int untyped = 0;
    for (const auto &spec : apps::allApps()) {
        apps::AppInstance app = spec.make(scale);
        CompileSample n = timedCompile(app.prog, starved);
        const auto &nd = n.map.report;
        uint64_t rounds = 0;
        for (const auto &a : nd.diag.attempts)
            rounds += a.rounds;
        if (!nd.ok && nd.diag.binding.empty()) {
            std::printf("%s: untyped rejection: %s\n", app.name.c_str(),
                        nd.error.c_str());
            ++untyped;
        }
        std::printf("%-14s | %9.0f | %8s | %7llu | %6llu | %8u\n",
                    app.name.c_str(), n.micros,
                    nd.ok ? "-" : nd.diag.binding.c_str(),
                    static_cast<unsigned long long>(nd.routedHops),
                    static_cast<unsigned long long>(rounds),
                    nd.diag.placementAttempts);
        if (!json_path.empty()) {
            auto put = [&](const std::string &k, uint64_t v) {
                json_stats.set(app.name + ".vtracks1." + k, v);
            };
            put("compile_us", static_cast<uint64_t>(n.micros));
            put("rejected", nd.ok ? 0 : 1);
            put("routedHops", nd.routedHops);
            put("routeRounds", rounds);
            put("placementAttempts", nd.diag.placementAttempts);
        }
    }
    // Small scratchpads: N-buffer depths spill or the design is
    // rejected, typed.
    ArchParams smallPmu = params;
    smallPmu.pmu.banks = 4;
    smallPmu.pmu.bankKilobytes = 1;
    std::printf("\n=== Capacity spilling at %u banks x %u KB ===\n",
                smallPmu.pmu.banks, smallPmu.pmu.bankKilobytes);
    std::printf("%-14s | %9s | %6s | %15s | %7s\n", "benchmark",
                "negot_us", "spills", "rejected", "n_hops");
    for (const auto &spec : apps::allApps()) {
        apps::AppInstance app = spec.make(scale);
        CompileSample n = timedCompile(app.prog, smallPmu);
        const auto &nd = n.map.report;
        if (!nd.ok && nd.diag.binding.empty()) {
            std::printf("%s: untyped rejection: %s\n", app.name.c_str(),
                        nd.error.c_str());
            ++untyped;
        }
        std::printf("%-14s | %9.0f | %6zu | %15s | %7llu\n",
                    app.name.c_str(), n.micros, nd.diag.spills.size(),
                    nd.ok ? "-" : nd.diag.binding.c_str(),
                    static_cast<unsigned long long>(nd.routedHops));
        if (!json_path.empty()) {
            auto put = [&](const std::string &k, uint64_t v) {
                json_stats.set(app.name + ".pmu4x1k." + k, v);
            };
            put("compile_us", static_cast<uint64_t>(n.micros));
            put("spills", nd.diag.spills.size());
            put("rejected", nd.ok ? 0 : 1);
            put("routedHops", nd.routedHops);
        }
    }
    bench::writeStatsJson(json_path, json_stats, "mapper", params);
    return untyped == 0 ? 0 : 1;
}

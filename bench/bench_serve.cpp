/**
 * @file
 * Serve-daemon throughput bench: the same seeded, duplicate-heavy
 * traffic (serve/traffic.hpp) through three legs —
 *
 *   serial   every job on a fresh Runner, no caches (the pre-daemon
 *            cost model: each submission pays compile + simulate)
 *   cached1  the daemon with 1 worker (cache win, no parallelism)
 *   serveN   the daemon at --workers=N (default 8)
 *
 * and reports jobs/sec, cache hit rates and the speedup of serveN
 * over serial. Cache hit/miss/eviction counters and job counts are
 * bit-deterministic (seeded traffic, content-addressed caches) and
 * gate exactly under bench_compare; wall-clock keys carry the _us
 * suffix so the gate applies its relative tolerance.
 *
 *   bench_serve --stats-json=out.json
 *   bench_serve --workers=8 --min-speedup=4 --min-hit-rate=0.5
 *
 * Exit status: 0 ok, 1 when a --min-* gate fails or any job fails.
 */

#include <cstdio>
#include <string>

#include "base/logging.hpp"
#include "base/profile.hpp"
#include "common.hpp"
#include "fuzz/diff.hpp"
#include "runtime/runner.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

using namespace plast;

namespace
{

struct Leg
{
    uint64_t wallUs = 0;
    uint64_t ok = 0;
    uint64_t cycles = 0;
};

Leg
runServerLeg(const std::vector<serve::JobSpec> &specs,
             serve::ServeOptions o, serve::CacheStats *cfgOut,
             serve::CacheStats *resOut)
{
    serve::Server server(o);
    uint64_t t0 = HostProfiler::instance().nowUs();
    server.start();
    for (const serve::JobSpec &s : specs)
        server.submit(s);
    server.drain();
    Leg leg;
    leg.wallUs = HostProfiler::instance().nowUs() - t0;
    for (const serve::JobResult &r : server.results()) {
        if (r.outcome && r.outcome->outcome == "ok")
            ++leg.ok;
        if (r.outcome)
            leg.cycles += r.outcome->cycles;
    }
    if (cfgOut)
        *cfgOut = server.configCacheStats();
    if (resOut)
        *resOut = server.resultCacheStats();
    return leg;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    HostProfiler::instance().setEnabled(false); // bench its own clock

    serve::TrafficOptions t;
    t.uniques = 12;
    t.jobs = 96;
    uint32_t workers = 8;
    double minSpeedup = 0.0, minHitRate = 0.0;
    std::string json_path;
    FlagSet flags = bench::flags("bench_serve", json_path);
    flags.num("seed", t.seed, "traffic duplication-pattern seed")
        .num("uniques", t.uniques, "distinct job identities", size_t{1},
             size_t{1'000'000})
        .num("jobs", t.jobs, "total submissions", size_t{1},
             size_t{10'000'000})
        .num("workers", workers, "worker pool size of the last leg", 1u,
             1024u)
        .real("min-speedup", minSpeedup,
              "fail below this speedup over serial (0 = off)")
        .real("min-hit-rate", minHitRate,
              "fail below this result-cache hit rate (0 = off)", 1);
    if (auto rc = flags.parse(argc, argv))
        return *rc;

    std::vector<serve::JobSpec> specs = serve::makeTraffic(t);

    // Leg 1: serial, uncached — every submission pays in full.
    Leg serial;
    {
        uint64_t t0 = HostProfiler::instance().nowUs();
        for (const serve::JobSpec &spec : specs) {
            Runner r(spec.prog, spec.params, SimOptions{});
            if (spec.load)
                spec.load(r);
            else
                fuzz::fillInputs(r, spec.prog);
            Runner::Result res;
            Status st = r.tryRun(res, spec.maxCycles
                                          ? spec.maxCycles
                                          : 500'000'000ull);
            if (st.ok())
                ++serial.ok;
            serial.cycles += res.cycles;
        }
        serial.wallUs = HostProfiler::instance().nowUs() - t0;
    }

    // Leg 2: the daemon, 1 worker — isolates the cache win.
    serve::ServeOptions o1;
    o1.workers = 1;
    Leg cached1 = runServerLeg(specs, o1, nullptr, nullptr);

    // Leg 3: the daemon at full width.
    serve::ServeOptions oN = o1;
    oN.workers = workers;
    serve::CacheStats cfg, res;
    Leg serveN = runServerLeg(specs, oN, &cfg, &res);

    auto jobsPerSec = [&](const Leg &l) {
        return l.wallUs
                   ? 1e6 * static_cast<double>(specs.size()) /
                         static_cast<double>(l.wallUs)
                   : 0.0;
    };
    double speedup =
        serveN.wallUs ? static_cast<double>(serial.wallUs) /
                            static_cast<double>(serveN.wallUs)
                      : 0.0;
    double hitRate =
        res.hits + res.misses
            ? static_cast<double>(res.hits) /
                  static_cast<double>(res.hits + res.misses)
            : 0.0;

    std::printf("traffic: %zu jobs over %zu uniques (seed %llu)\n",
                t.jobs, t.uniques,
                static_cast<unsigned long long>(t.seed));
    std::printf("serial   : %8.1f jobs/s (%.3f s)\n",
                jobsPerSec(serial),
                static_cast<double>(serial.wallUs) / 1e6);
    std::printf("cached x1: %8.1f jobs/s (%.3f s)\n",
                jobsPerSec(cached1),
                static_cast<double>(cached1.wallUs) / 1e6);
    std::printf("cached x%u: %7.1f jobs/s (%.3f s)  -> %.1fx serial\n",
                workers, jobsPerSec(serveN),
                static_cast<double>(serveN.wallUs) / 1e6, speedup);
    std::printf("result cache: %.0f%% hit rate (%llu/%llu), config "
                "misses %llu\n",
                hitRate * 100,
                static_cast<unsigned long long>(res.hits),
                static_cast<unsigned long long>(res.hits + res.misses),
                static_cast<unsigned long long>(cfg.misses));

    StatSet stats;
    stats.set("traffic.jobs", t.jobs);
    stats.set("traffic.uniques", t.uniques);
    stats.set("serve.workers", workers);
    stats.set("serial.ok", serial.ok);
    stats.set("serial.cycles_total", serial.cycles);
    stats.set("serial.wall_us", serial.wallUs);
    stats.set("cached1.ok", cached1.ok);
    stats.set("cached1.cycles_total", cached1.cycles);
    stats.set("cached1.wall_us", cached1.wallUs);
    stats.set("serve.ok", serveN.ok);
    stats.set("serve.cycles_total", serveN.cycles);
    stats.set("serve.wall_us", serveN.wallUs);
    stats.set("serve.cache.config.hits", cfg.hits);
    stats.set("serve.cache.config.misses", cfg.misses);
    stats.set("serve.cache.config.evictions", cfg.evictions);
    stats.set("serve.cache.result.hits", res.hits);
    stats.set("serve.cache.result.misses", res.misses);
    stats.set("serve.cache.result.evictions", res.evictions);
    bench::writeStatsJson(json_path, stats, "serve");

    bool failed = false;
    if (serial.ok != specs.size() || cached1.ok != specs.size() ||
        serveN.ok != specs.size()) {
        std::fprintf(stderr, "bench_serve: some jobs failed\n");
        failed = true;
    }
    if (minSpeedup > 0 && speedup < minSpeedup) {
        std::fprintf(stderr,
                     "bench_serve: speedup %.2fx below gate %.2fx\n",
                     speedup, minSpeedup);
        failed = true;
    }
    if (minHitRate > 0 && hitRate < minHitRate) {
        std::fprintf(stderr,
                     "bench_serve: hit rate %.2f below gate %.2f\n",
                     hitRate, minHitRate);
        failed = true;
    }
    return failed ? 1 : 0;
}

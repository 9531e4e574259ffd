/**
 * @file
 * Host-side cost of the simulation core: runs every Table 4 benchmark
 * end to end under the two engines — the oracle (dense tick over the
 * interpreter) and production (activity scheduling over specialized
 * execution plans) — and reports the wall-clock speedup of the
 * *simulation phase* (input staging and compile with place & route
 * are engine-independent and timed in columns of their own). Both
 * simulate the same machine — outputs, cycles, counters and cycle
 * ledgers (checkWholeRun, enforced here fatally and by the test
 * suite); the win comes from not ticking blocked units, flat
 * pre-resolved stage plans, monomorphic vectorized kernels and elided
 * dead machinery (DESIGN.md §13). Each leg runs kRepeats times per
 * app, alternating the two, and every time column and key is the
 * median, so one slow run on a shared host does not move it.
 *
 * `--paper` additionally runs InnerProduct at the paper's dataset size
 * (768 M elements, Table 7) under the production engine — the run the
 * interpretive simulator could not complete in reasonable wall-clock.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "common.hpp"

using namespace plast;

namespace
{

/** Timed runs of each leg per app. */
constexpr int kRepeats = 5;

struct EngineRun
{
    double setupSeconds = 0;   ///< build the program, stage its inputs
    double compileSeconds = 0; ///< compile + place-and-route
    double simSeconds = 0;     ///< Runner::run() only
    pir::Program prog;
    Runner::Result rec; ///< DRAM read back after the timed run
};

double
secondsSince(std::chrono::steady_clock::time_point &t)
{
    auto now = std::chrono::steady_clock::now();
    double s = std::chrono::duration<double>(now - t).count();
    t = now;
    return s;
}

/** Compile `runner`'s program now, so that run() times only the
 *  simulation; fatal when it does not map. */
void
compileOrDie(Runner &runner)
{
    Status st = runner.tryCompile();
    fatal_if(!st.ok(), "%s", st.message().c_str());
}

EngineRun
timeApp(const apps::AppSpec &spec, apps::Scale scale, SimOptions opts)
{
    EngineRun out;
    auto t = std::chrono::steady_clock::now();
    apps::AppInstance app = spec.make(scale);
    Runner runner(std::move(app.prog), ArchParams::plasticineFinal(),
                  opts);
    app.load(runner);
    out.setupSeconds = secondsSince(t);
    compileOrDie(runner);
    out.compileSeconds = secondsSince(t);
    Runner::Result res = runner.run();
    out.simSeconds = secondsSince(t);
    runner.readBack(res);
    out.prog = runner.program();
    out.rec = std::move(res);
    return out;
}

/** The median of one phase's time over a leg's runs. */
double
median(const std::vector<EngineRun> &runs, double EngineRun::*phase)
{
    std::vector<double> v;
    for (const EngineRun &r : runs)
        v.push_back(r.*phase);
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

void
runPaperScaleInnerProduct()
{
    std::printf("\n=== Paper-scale InnerProduct (768 M elements, "
                "Table 7) — production engine ===\n");
    auto t = std::chrono::steady_clock::now();
    apps::AppInstance app =
        apps::makeInnerProduct(apps::Scale::kPaper);
    Runner runner(std::move(app.prog), ArchParams::plasticineFinal());
    app.load(runner);
    double setup = secondsSince(t);
    compileOrDie(runner);
    double compile = secondsSince(t);
    Runner::Result res = runner.run();
    double sim = secondsSince(t);
    std::printf("completed: %llu cycles | setup %.1f s | compile %.1f s "
                "| sim %.1f s (%.2f Mcycles/s)\n",
                (unsigned long long)res.cycles, setup, compile, sim,
                static_cast<double>(res.cycles) / sim / 1e6);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    bool tiny = false, paper = false;
    std::string json_path;
    FlagSet flags = bench::flags("bench_scheduler", json_path, &tiny);
    flags.sw("paper", paper,
             "also run InnerProduct at the paper's dataset size");
    if (auto rc = flags.parse(argc, argv))
        return *rc;
    apps::Scale scale = tiny ? apps::Scale::kTiny : apps::Scale::kDefault;

    SimOptions oracle;
    oracle.engine = Engine::kOracle;

    std::printf("=== Simulation-phase cost: oracle (dense+interp) vs "
                "production (activity+specialized), median of %d ===\n",
                kRepeats);
    std::printf("%-14s | %10s | %8s %9s | %9s %9s | %7s\n", "benchmark",
                "cycles", "setup_s", "compile_s", "dense_s", "spec_s",
                "spec_x");

    StatSet json_stats;
    double dense_total = 0, spec_total = 0;
    for (const auto &spec : apps::allApps()) {
        std::vector<EngineRun> d, s;
        for (int i = 0; i < kRepeats; ++i) {
            d.push_back(timeApp(spec, scale, oracle));
            s.push_back(timeApp(spec, scale, SimOptions{}));
            Status st = checkWholeRun(d[i].prog, d[i].rec, s[i].rec,
                                      spec.name + " oracle vs production");
            fatal_if(!st.ok(), "%s", st.message().c_str());
        }
        const double setup = median(s, &EngineRun::setupSeconds);
        const double compile = median(s, &EngineRun::compileSeconds);
        const double dense = median(d, &EngineRun::simSeconds);
        const double production = median(s, &EngineRun::simSeconds);
        dense_total += dense;
        spec_total += production;
        std::printf("%-14s | %10llu | %8.4f %9.4f | %9.4f %9.4f | "
                    "%6.2fx\n",
                    spec.name.c_str(), (unsigned long long)d[0].rec.cycles,
                    setup, compile, dense, production, dense / production);
        if (!json_path.empty()) {
            for (const auto &[name, value] : s[0].rec.stats.all())
                json_stats.set(spec.name + "." + name, value);
            json_stats.set(spec.name + ".wall_us.setup",
                           (uint64_t)(setup * 1e6));
            json_stats.set(spec.name + ".wall_us.compile",
                           (uint64_t)(compile * 1e6));
            json_stats.set(spec.name + ".wall_us.dense_interp",
                           (uint64_t)(dense * 1e6));
            json_stats.set(spec.name + ".wall_us.activity_specialized",
                           (uint64_t)(production * 1e6));
        }
    }
    std::printf("%-14s | %10s | %8s %9s | %9.4f %9.4f | %6.2fx\n",
                "total", "", "", "", dense_total, spec_total,
                dense_total / spec_total);
    bench::writeStatsJson(json_path, json_stats, "scheduler");
    if (paper)
        runPaperScaleInnerProduct();
    return 0;
}

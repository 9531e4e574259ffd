/**
 * @file
 * Run one of the 13 benchmarks with cycle-level tracing enabled and
 * export the observability artifacts:
 *
 *   trace_app GEMM --trace=gemm.json --report
 *
 * writes a Chrome trace-event JSON (load it at ui.perfetto.dev or
 * chrome://tracing) and prints the post-run bottleneck report. The
 * trace carries two processes on one timeline: the fabric's simulated
 * cycles (pid 1) and the host's wall-clock compile/build/run phases
 * (pid 2) — so "why is the sim slow" and "why is the program slow" are
 * answered by the same file. Also supports epoch-sampled utilization
 * CSV, a flat stats JSON dump, a Prometheus-style metric exposition
 * and the per-run manifest.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "apps/apps.hpp"
#include "base/flags.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "base/stats.hpp"
#include "runtime/bottleneck.hpp"
#include "runtime/runner.hpp"

using namespace plast;

int
main(int argc, char **argv)
{
    setVerbose(false);
    const apps::AppSpec *spec = nullptr;
    std::string trace_path, csv_path, json_path, metrics_path,
        manifest_path;
    apps::Scale scale = apps::Scale::kTiny;
    SimOptions opts;
    bool report = false;

    std::string appHelp = "benchmark:";
    for (const auto &s : apps::allApps())
        appHelp += " " + s.name;
    FlagSet flags("trace_app", "<app> [options]");
    flags.arg("app", appHelp.c_str(),
              [&spec](const std::string &v) {
                  spec = apps::findApp(v);
                  return spec ? std::string()
                              : "unknown benchmark '" + v + "'";
              })
        .word("engine", opts.engine,
              {{"production", Engine::kProduction},
               {"oracle", Engine::kOracle}},
              "simulation engine")
        .word("scale", scale,
              {{"tiny", apps::Scale::kTiny}, {"default", apps::Scale::kDefault}},
              "workload size")
        .str("trace", trace_path, "PATH", "write Chrome trace-event JSON")
        .str("util-csv", csv_path, "PATH", "write epoch utilization CSV")
        .str("stats-json", json_path, "PATH", "write flat stats JSON")
        .str("metrics", metrics_path, "PATH",
             "write Prometheus-style text exposition")
        .str("manifest", manifest_path, "PATH",
             "write the per-run manifest JSON")
        .num("epoch", opts.trace.epochCycles,
             "utilization epoch length in cycles (0 = no epochs)")
        .sw("report", report, "print the bottleneck report");
    if (auto rc = flags.parse(argc, argv))
        return *rc;

    // Tracing is needed for the trace file and the utilization CSV; the
    // per-unit ledgers behind the bottleneck report are always kept.
    opts.trace.enabled = !trace_path.empty() || !csv_path.empty();

    apps::AppInstance app = spec->make(scale);
    Runner runner(app.prog, ArchParams::plasticineFinal(), opts);
    app.load(runner);
    Runner::Result res = runner.run();
    std::printf("%s: %llu cycles (%s mode, %s datapath)\n",
                app.name.c_str(),
                static_cast<unsigned long long>(res.cycles),
                schedulerName(opts.engine), datapathName(opts.engine));

    const Fabric *fab = runner.fabric();
    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        fatal_if(!os, "cannot open %s", trace_path.c_str());
        fab->writeTrace(os);
        std::printf("trace: %s (%zu events, %llu dropped)\n",
                    trace_path.c_str(), fab->trace()->size(),
                    static_cast<unsigned long long>(
                        fab->trace()->dropped()));
    }
    if (!csv_path.empty()) {
        std::ofstream os(csv_path);
        fatal_if(!os, "cannot open %s", csv_path.c_str());
        fab->writeUtilizationCsv(os);
        std::printf("utilization: %s\n", csv_path.c_str());
    }
    if (!json_path.empty()) {
        std::ofstream os(json_path);
        fatal_if(!os, "cannot open %s", json_path.c_str());
        res.stats.writeJson(os);
        std::printf("stats: %s\n", json_path.c_str());
    }
    if (!metrics_path.empty()) {
        // Simulator counters plus host phase timings in one registry,
        // scrape-ready.
        StatSet reg;
        for (const auto &[name, value] : res.stats.all())
            reg.set("sim." + name, value);
        for (const auto &[phase, us] :
             HostProfiler::instance().totalsUs())
            reg.set("host.phase_us." + phase, us);
        std::ofstream os(metrics_path);
        fatal_if(!os, "cannot open %s", metrics_path.c_str());
        reg.writePrometheus(os);
        std::printf("metrics: %s\n", metrics_path.c_str());
    }
    if (!manifest_path.empty()) {
        std::ofstream os(manifest_path);
        fatal_if(!os, "cannot open %s", manifest_path.c_str());
        runner.writeManifest(os, res);
        std::printf("manifest: %s\n", manifest_path.c_str());
    }
    if (report) {
        BottleneckReport rep = analyzeBottlenecks(*fab);
        std::printf("\n%s", rep.render().c_str());
    }
    return 0;
}

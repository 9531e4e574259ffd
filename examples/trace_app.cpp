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
#include <cstring>
#include <fstream>
#include <string>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "base/metrics.hpp"
#include "base/profile.hpp"
#include "runtime/bottleneck.hpp"
#include "runtime/runner.hpp"

using namespace plast;

namespace
{

void
usage()
{
    std::printf(
        "usage: trace_app <app> [options]\n"
        "  --mode=activity|dense   simulation mode (default activity)\n"
        "  --sim-mode=interp|specialized\n"
        "                          datapath engine (default specialized)\n"
        "  --scale=tiny|default    workload size (default tiny)\n"
        "  --trace=<path>          write Chrome trace-event JSON\n"
        "  --util-csv=<path>       write epoch utilization CSV\n"
        "  --stats-json=<path>     write flat stats JSON\n"
        "  --metrics=<path>        write Prometheus-style text exposition\n"
        "  --manifest=<path>       write the per-run manifest JSON\n"
        "  --epoch=<cycles>        utilization epoch length (default 1024)\n"
        "  --report                print the bottleneck report\n"
        "apps:");
    for (const auto &spec : apps::allApps())
        std::printf(" %s", spec.name.c_str());
    std::printf("\n");
}

std::string
flagValue(const char *arg, const char *name)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    if (argc < 2) {
        usage();
        return 1;
    }

    std::string app_name = argv[1];
    std::string trace_path, csv_path, json_path, metrics_path,
        manifest_path;
    apps::Scale scale = apps::Scale::kTiny;
    SimOptions opts;
    bool report = false;

    for (int i = 2; i < argc; ++i) {
        const char *arg = argv[i];
        std::string v;
        if (!(v = flagValue(arg, "--mode")).empty()) {
            opts.mode = v == "dense" ? SimOptions::Mode::kDense
                                     : SimOptions::Mode::kActivity;
        } else if (!(v = flagValue(arg, "--sim-mode")).empty()) {
            opts.simMode = v == "interp" ? SimMode::kInterp
                                         : SimMode::kSpecialized;
        } else if (!(v = flagValue(arg, "--scale")).empty()) {
            scale = v == "default" ? apps::Scale::kDefault
                                   : apps::Scale::kTiny;
        } else if (!(v = flagValue(arg, "--trace")).empty()) {
            trace_path = v;
        } else if (!(v = flagValue(arg, "--util-csv")).empty()) {
            csv_path = v;
        } else if (!(v = flagValue(arg, "--stats-json")).empty()) {
            json_path = v;
        } else if (!(v = flagValue(arg, "--metrics")).empty()) {
            metrics_path = v;
        } else if (!(v = flagValue(arg, "--manifest")).empty()) {
            manifest_path = v;
        } else if (!(v = flagValue(arg, "--epoch")).empty()) {
            opts.trace.epochCycles = std::stoul(v);
        } else if (std::strcmp(arg, "--report") == 0) {
            report = true;
        } else {
            usage();
            return 1;
        }
    }

    const apps::AppSpec *spec = nullptr;
    for (const auto &s : apps::allApps()) {
        if (s.name == app_name)
            spec = &s;
    }
    if (!spec) {
        std::printf("unknown app '%s'\n", app_name.c_str());
        usage();
        return 1;
    }

    // Tracing is needed for the trace file, the utilization CSV and the
    // per-unit ledgers feeding the bottleneck report.
    opts.trace.enabled =
        !trace_path.empty() || !csv_path.empty() || report;

    apps::AppInstance app = spec->make(scale);
    Runner runner(app.prog, ArchParams::plasticineFinal(), opts);
    app.load(runner);
    Runner::Result res = runner.run();
    std::printf("%s: %llu cycles (%s mode, %s datapath)\n",
                app.name.c_str(),
                static_cast<unsigned long long>(res.cycles),
                opts.mode == SimOptions::Mode::kDense ? "dense"
                                                      : "activity",
                simModeName(opts.simMode));

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
        res.stats.dumpJson(os);
        std::printf("stats: %s\n", json_path.c_str());
    }
    if (!metrics_path.empty()) {
        // The unified exposition: simulator counters plus host phase
        // timings through one MetricRegistry, scrape-ready.
        MetricRegistry reg;
        for (const auto &[name, value] : res.stats.all())
            reg.setCounter("sim." + name, value);
        for (const auto &[phase, us] :
             HostProfiler::instance().totalsUs())
            reg.setCounter("host.phase_us." + phase, us);
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

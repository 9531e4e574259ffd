/**
 * @file
 * Regenerates Table 7: utilization, power, performance and
 * performance-per-Watt of Plasticine versus the Stratix V FPGA
 * baseline over the 13 benchmarks.
 *
 * Plasticine numbers are measured: every benchmark is compiled by the
 * full stack and executed on the cycle simulator at 1 GHz (results are
 * checked bit-exactly against the reference model by the test suite;
 * workload sizes are scaled as documented in EXPERIMENTS.md). FPGA
 * numbers come from the resource-constraint model in src/fpga,
 * calibrated with the paper's published per-benchmark device
 * utilizations. The paper's measured ratios are printed alongside for
 * shape comparison.
 */

#include <cstdio>
#include <cstring>

#include "apps/apps.hpp"
#include "common.hpp"
#include "fpga/fpga_model.hpp"
#include "base/logging.hpp"
#include "model/power.hpp"

using namespace plast;

namespace
{

struct PaperRow
{
    const char *name;
    double perf; ///< Plasticine / FPGA performance (Table 7)
    double perfPerWatt;
};

const PaperRow kPaper[] = {
    {"InnerProduct", 1.4, 1.6}, {"OuterProduct", 6.7, 6.1},
    {"BlackScholes", 5.1, 5.8}, {"TPCHQ6", 1.4, 1.5},
    {"GEMM", 33.0, 24.4},       {"GDA", 40.0, 25.9},
    {"LogReg", 11.4, 9.2},      {"SGD", 6.7, 15.9},
    {"Kmeans", 6.1, 11.3},      {"CNN", 95.1, 76.9},
    {"SMDV", 8.3, 9.3},         {"PageRank", 14.2, 18.2},
    {"BFS", 7.3, 11.4},
};

PaperRow
paperRow(const std::string &name)
{
    for (const auto &r : kPaper) {
        if (name == r.name)
            return r;
    }
    return {"?", 0, 0};
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    bool tiny = false;
    std::string json_path;
    if (auto rc = bench::flags("bench_table7", json_path, &tiny)
                      .parse(argc, argv))
        return *rc;
    apps::Scale scale = tiny ? apps::Scale::kTiny : apps::Scale::kDefault;
    StatSet json_stats;

    ArchParams params = ArchParams::plasticineFinal();
    model::PowerModel power;

    std::printf("=== Table 7: Plasticine vs FPGA "
                "(measured cycle sim vs baseline model) ===\n");
    std::printf("%-14s | %5s %5s %5s %5s | %6s %6s | %9s %9s | %9s "
                "%7s | %7s %7s\n",
                "benchmark", "PCU%", "PMU%", "AG%", "FU%", "fpgaW",
                "plasW", "fpga_s", "plas_s", "perf", "paper", "perf/W",
                "paper");

    for (const auto &spec : apps::allApps()) {
        apps::AppInstance app = spec.make(scale);
        Runner runner(app.prog, params);
        app.load(runner);
        Runner::Result res = runner.run();
        const auto &rep = runner.report();
        if (!json_path.empty()) {
            for (const auto &[k, v] : res.stats.all())
                json_stats.set(app.name + "." + k, v);
        }

        double cycles = static_cast<double>(res.cycles);
        double plas_s = cycles / 1e9;
        // FU utilization: lane-ops per cycle over provisioned FU-lanes.
        double fu_util = 0;
        double lane_ops = 0;
        for (const auto &[k, v] : res.stats.all()) {
            if (k.find("laneOps") != std::string::npos)
                lane_ops += static_cast<double>(v);
        }
        fu_util = rep.pcusUsed
                      ? lane_ops / (cycles * rep.pcusUsed *
                                    params.pcu.lanes * params.pcu.stages)
                      : 0;

        double plas_w = power.estimate(res.stats, rep, params);
        fpga::FpgaEstimate fe = fpga::estimateFpga(app);
        PaperRow pr = paperRow(app.name);

        double perf = fe.seconds / plas_s;
        double ppw = perf * fe.watts / plas_w;
        std::printf("%-14s | %5.1f %5.1f %5.1f %5.1f | %6.1f %6.1f | "
                    "%9.2e %9.2e | %8.1fx %8.1fx | %6.1fx %6.1fx\n",
                    app.name.c_str(),
                    100.0 * rep.pcusUsed / params.numPcus(),
                    100.0 * rep.pmusUsed / params.numPmus(),
                    100.0 * rep.agsUsed / params.numAgs,
                    100.0 * fu_util, fe.watts, plas_w, fe.seconds,
                    plas_s, perf, pr.perf, ppw, pr.perfPerWatt);
    }

    std::printf("\nNotes: workloads are scaled to run locally "
                "(EXPERIMENTS.md); the paper's ratios are shown for "
                "shape comparison. Utilizations are the mapper's unit "
                "counts over the 64+64-unit fabric; FU%% is measured "
                "lane occupancy.\n");
    bench::writeStatsJson(json_path, json_stats, "table7", params);
    return 0;
}

/**
 * @file
 * Regenerates Table 6: estimated successive (and cumulative) area
 * overheads of generalizing application-specific designs into the
 * homogeneous Plasticine fabric — ASIC -> heterogeneous reconfigurable
 * units -> homogeneous PMUs -> homogeneous PCUs -> PMU/PCU parameters
 * generalized across all applications.
 */

#include <cmath>
#include <cstdio>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "common.hpp"
#include "model/asic.hpp"

using namespace plast;

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string json_path;
    if (auto rc = bench::flags("bench_table6", json_path).parse(argc, argv))
        return *rc;
    StatSet json_stats;
    ArchParams params = ArchParams::plasticineFinal();
    model::AreaModel area;

    std::printf("=== Table 6: successive (cumulative) area overheads "
                "===\n");
    std::printf("%-14s %8s %14s %14s %14s %14s\n", "benchmark",
                "a.hetero", "b.homoPMU", "c.homoPCU", "d.genPMU",
                "e.genPCU");

    double ga = 1, gb = 1, gc = 1, gd = 1, ge = 1;
    int n = 0;
    for (const auto &spec : apps::allApps()) {
        if (spec.name == "CNN")
            continue; // Table 6 lists the other twelve
        apps::AppInstance app = spec.make(apps::Scale::kTiny);
        model::GeneralityRow row = model::estimateGenerality(
            spec.name, app.prog, area, params);
        std::printf("%-14s %8.2f %6.2f (%5.2f) %6.2f (%5.2f) %6.2f "
                    "(%5.2f) %6.2f (%5.2f)\n",
                    row.name.c_str(), row.aRatio(), row.bRatio(),
                    row.homoPmu / row.asic, row.cRatio(),
                    row.homoPcu / row.asic, row.dRatio(),
                    row.genPmu / row.asic, row.eRatio(),
                    row.cumulative());
        ga *= row.aRatio();
        gb *= row.bRatio();
        gc *= row.cRatio();
        gd *= row.dRatio();
        ge *= row.eRatio();
        ++n;
        bench::setScaled(json_stats, row.name + ".cumulativeMilli",
                         row.cumulative());
    }
    auto geo = [&](double p) { return std::pow(p, 1.0 / n); };
    std::printf("%-14s %8.2f %6.2f %14.2f %14.2f %14.2f\n", "GeoMean",
                geo(ga), geo(gb), geo(gc), geo(gd), geo(ge));
    std::printf("\nPaper geomeans: a 2.77, b 1.41, c 2.32, d 1.21, "
                "e 1.04 (cumulative 11.5)\n");
    bench::setScaled(json_stats, "geomean.aMilli", geo(ga));
    bench::setScaled(json_stats, "geomean.bMilli", geo(gb));
    bench::setScaled(json_stats, "geomean.cMilli", geo(gc));
    bench::setScaled(json_stats, "geomean.dMilli", geo(gd));
    bench::setScaled(json_stats, "geomean.eMilli", geo(ge));
    bench::writeStatsJson(json_path, json_stats, "table6");
    return 0;
}

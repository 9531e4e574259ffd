/**
 * @file
 * Regenerates Table 3: the architecture design space and the selected
 * final parameters, with the tuner's justification for each choice
 * (the minimum-overhead value over the benchmark suite, §3.7).
 */

#include <cstdio>

#include "base/logging.hpp"
#include "common.hpp"
#include "model/tuning.hpp"

using namespace plast;
using model::Tuner;

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string json_path;
    if (auto rc = bench::flags("bench_table3", json_path).parse(argc, argv))
        return *rc;
    StatSet json_stats;
    std::printf("=== Table 3: design space and selected parameters ===\n");
    std::printf("%-28s %-22s %s\n", "Component / parameter", "Range",
                "Selected");
    auto row = [](const char *n, const char *r, const char *v) {
        std::printf("%-28s %-22s %s\n", n, r, v);
    };
    row("PCU lanes", "4, 8, 16, 32", "16");
    row("PCU stages", "1 - 16", "6");
    row("PCU registers/stage", "2 - 16", "6");
    row("PCU scalar inputs", "1 - 16", "6");
    row("PCU scalar outputs", "1 - 6", "5");
    row("PCU vector inputs", "1 - 10", "3");
    row("PCU vector outputs", "1 - 6", "3");
    row("PMU bank size", "4 - 64 KB", "16 KB");
    row("PMU banks", "= PCU lanes", "16");
    row("PMU total scratchpad", "bank size x banks", "256 KB");
    row("PMU stages", "1 - 16", "4");
    row("PMU registers/stage", "2 - 16", "6");
    row("PMU scalar inputs", "1 - 16", "4");
    row("PMU scalar outputs", "0 - 6", "0");
    row("PMU vector inputs", "1 - 10", "3");
    row("PMU vector outputs", "1 - 6", "1");
    row("Architecture PCUs", "-", "64");
    row("Architecture PMUs", "-", "64");

    // Tuner justification: average overhead across the suite at each
    // candidate value of the two highest-impact parameters.
    std::printf("\n--- tuner check: average overhead across the twelve "
                "benchmarks ---\n");
    Tuner tuner(model::benchmarkLeaves(), model::AreaModel{});
    for (Tuner::Axis axis :
         {Tuner::Axis::kStages, Tuner::Axis::kRegs}) {
        const auto &vals = Tuner::gridValues(axis);
        std::printf("%s:", Tuner::axisName(axis).c_str());
        std::vector<double> avg(vals.size(), 0);
        std::vector<int> cnt(vals.size(), 0);
        for (size_t bi = 0; bi < tuner.numBenches(); ++bi) {
            auto series = tuner.sweep(bi, axis, vals, PcuParams{}, {});
            for (size_t i = 0; i < vals.size(); ++i) {
                if (series[i] >= 0) {
                    avg[i] += series[i];
                    ++cnt[i];
                }
            }
        }
        for (size_t i = 0; i < vals.size(); ++i) {
            if (cnt[i]) {
                std::printf("  %u:%.0f%%", vals[i],
                            100.0 * avg[i] / cnt[i]);
                // Average overhead in milli-units (x1000) per value.
                bench::setScaled(json_stats,
                                 Tuner::axisName(axis) + ".val" +
                                     std::to_string(vals[i]) +
                                     ".avgOverheadMilli",
                                 avg[i] / cnt[i]);
            } else {
                std::printf("  %u:x", vals[i]);
            }
        }
        std::printf("\n");
    }
    bench::writeStatsJson(json_path, json_stats, "table3");
    return 0;
}

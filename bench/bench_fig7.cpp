/**
 * @file
 * Regenerates Figure 7 (a-f): normalized PCU area overhead
 * (AreaPCU / MinPCU - 1) per benchmark while sweeping one parameter,
 * minimizing over the rest of the space; infeasible values print "x".
 * Axes are swept in the paper's order, fixing each tuned value before
 * the next sweep (6 stages, 6 registers, 6 scalar ins, ...).
 */

#include <cstdio>
#include <vector>

#include "base/logging.hpp"
#include "common.hpp"
#include "model/tuning.hpp"

using namespace plast;
using model::Tuner;

namespace
{

void
panel(const Tuner &tuner, char label, Tuner::Axis axis,
      const std::vector<uint32_t> &values, const PcuParams &base,
      const std::vector<Tuner::Axis> &fixed, StatSet &json_stats)
{
    std::printf("\n--- Figure 7%c: overhead vs %s per PCU ---\n", label,
                Tuner::axisName(axis).c_str());
    std::printf("%-14s", "benchmark");
    for (uint32_t v : values)
        std::printf(" %6u", v);
    std::printf("\n");
    for (size_t bi = 0; bi < tuner.numBenches(); ++bi) {
        auto series = tuner.sweep(bi, axis, values, base, fixed);
        std::printf("%-14s", tuner.benchName(bi).c_str());
        for (size_t i = 0; i < series.size(); ++i) {
            double o = series[i];
            if (o < 0) {
                std::printf("      x");
            } else {
                std::printf(" %5.0f%%", 100.0 * o);
                bench::setScaled(
                    json_stats,
                    tuner.benchName(bi) + "." +
                        Tuner::axisName(axis) + ".val" +
                        std::to_string(values[i]) + ".overheadMilli",
                    o);
            }
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string json_path;
    if (auto rc = bench::flags("bench_fig7", json_path).parse(argc, argv))
        return *rc;
    StatSet json_stats;
    Tuner tuner(model::benchmarkLeaves(), model::AreaModel{});

    PcuParams base; // final values pinned as the sweep progresses

    panel(tuner, 'a', Tuner::Axis::kStages,
          {4, 5, 6, 7, 8, 10, 12, 16}, base, {}, json_stats);
    panel(tuner, 'b', Tuner::Axis::kRegs, {2, 4, 6, 8, 12, 16}, base,
          {Tuner::Axis::kStages}, json_stats);
    panel(tuner, 'c', Tuner::Axis::kScalarIns, {1, 2, 4, 6, 8, 10},
          base, {Tuner::Axis::kStages, Tuner::Axis::kRegs}, json_stats);
    panel(tuner, 'd', Tuner::Axis::kScalarOuts, {1, 2, 3, 4, 5, 6},
          base,
          {Tuner::Axis::kStages, Tuner::Axis::kRegs,
           Tuner::Axis::kScalarIns},
          json_stats);
    panel(tuner, 'e', Tuner::Axis::kVectorIns, {1, 2, 3, 4, 6, 8, 10},
          base,
          {Tuner::Axis::kStages, Tuner::Axis::kRegs,
           Tuner::Axis::kScalarIns, Tuner::Axis::kScalarOuts},
          json_stats);
    panel(tuner, 'f', Tuner::Axis::kVectorOuts, {1, 2, 3, 4, 5, 6},
          base,
          {Tuner::Axis::kStages, Tuner::Axis::kRegs,
           Tuner::Axis::kScalarIns, Tuner::Axis::kScalarOuts,
           Tuner::Axis::kVectorIns},
          json_stats);

    std::printf("\nSelected (Table 3): 6 stages, 6 registers, 6 scalar "
                "ins, 5 scalar outs, 3 vector ins, 3 vector outs\n");
    bench::writeStatsJson(json_path, json_stats, "fig7");
    return 0;
}

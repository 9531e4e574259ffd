/**
 * @file
 * Regenerates Table 5: the component-wise area breakdown of the final
 * Plasticine architecture (paper: 112.8 mm^2 at 28 nm, PCU 0.849 mm^2,
 * PMU 0.532 mm^2, interconnect 16.7%, memory controller 5%).
 */

#include <cstdio>

#include "common.hpp"
#include "model/area.hpp"
#include "model/power.hpp"

using namespace plast;

int
main(int argc, char **argv)
{
    std::string json_path;
    if (auto rc = bench::flags("bench_table5", json_path).parse(argc, argv))
        return *rc;
    ArchParams params = ArchParams::plasticineFinal();
    model::AreaModel area;
    model::AreaModel::Breakdown b = area.chipBreakdown(params);

    std::printf("=== Table 5: Plasticine area breakdown (28 nm) ===\n");
    std::printf("%s\n", params.describe().c_str());
    std::printf("%s", b.table().c_str());

    std::printf("\nPaper reference points: PCU 0.849 mm^2, PMU 0.532 "
                "mm^2, chip 112.8 mm^2\n");
    std::printf("Model:                  PCU %.3f mm^2, PMU %.3f mm^2, "
                "chip %.1f mm^2\n",
                b.pcuEach, b.pmuEach, b.chip);

    model::PowerModel power;
    std::printf("\nPeak power at 1 GHz: %.1f W (paper: 49 W)\n",
                power.peak(params));
    double tflops = static_cast<double>(params.numPcus()) *
                    params.pcu.lanes * params.pcu.stages * 2.0 / 1e3;
    std::printf("Peak FP throughput: %.1f GFLOPS-equivalent lanes "
                "(paper: 12.3 TFLOPS peak)\n",
                tflops);
    std::printf("On-chip scratchpad: %.1f MB (paper: 16 MB)\n",
                params.numPmus() * params.pmu.totalBytes() / 1.0e6);

    // Model outputs in milli-units (mm^2, W x1000) so the area/power
    // trajectory is gateable alongside the measured benches.
    StatSet json_stats;
    bench::setScaled(json_stats, "area.pcuMilliMm2", b.pcuEach);
    bench::setScaled(json_stats, "area.pmuMilliMm2", b.pmuEach);
    bench::setScaled(json_stats, "area.chipMilliMm2", b.chip);
    bench::setScaled(json_stats, "power.peakMilliW", power.peak(params));
    bench::writeStatsJson(json_path, json_stats, "table5", params);
    return 0;
}

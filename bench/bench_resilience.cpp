/**
 * @file
 * Cost of the resilience machinery: per-app checkpoint save/restore
 * throughput (the word tape captures the full architectural state,
 * DRAM image included), the end-to-end slowdown of a fault-free run
 * under the recovery orchestrator (its checkpoint ring, each snapshot
 * taken at a cycle-cap stop), and the analytical
 * area/power overhead of SECDED ECC on scratchpads and DRAM (39/32 on
 * SRAM capacity, 72/64 on the DRAM interface, plus encoder/decoder
 * logic).
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "common.hpp"
#include "model/area.hpp"
#include "model/power.hpp"
#include "resilience/recovery.hpp"

using namespace plast;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    bool tiny = false;
    std::string json_path;
    if (auto rc = bench::flags("bench_resilience", json_path, &tiny)
                      .parse(argc, argv))
        return *rc;
    StatSet json_stats;
    apps::Scale scale = tiny ? apps::Scale::kTiny : apps::Scale::kDefault;
    ArchParams params = ArchParams::plasticineFinal();

    std::printf("=== Checkpoint save/restore throughput and periodic-"
                "checkpoint overhead ===\n");
    std::printf("%-14s | %10s %9s | %9s %9s %9s | %8s\n", "benchmark",
                "cycles", "tape_kw", "save_us", "restore_us", "MW/s",
                "ckpt_ovh");

    constexpr int kReps = 20;
    for (const auto &spec : apps::allApps()) {
        // Baseline run (also the fabric we snapshot), compiled first so
        // that both timed legs simulate only.
        apps::AppInstance app = spec.make(scale);
        Runner r(app.prog, params);
        app.load(r);
        fatal_if(!r.tryCompile().ok(), "%s: compile failed",
                 spec.name.c_str());
        auto t0 = std::chrono::steady_clock::now();
        Runner::Result res = r.run();
        double base_s = secondsSince(t0);

        Fabric *fab = r.mutableFabric();
        FabricCheckpoint cp;
        t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kReps; ++i)
            cp = fab->saveCheckpoint();
        double save_s = secondsSince(t0) / kReps;
        t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kReps; ++i)
            fatal_if(!fab->restoreCheckpoint(cp).ok(),
                     "restore failed");
        double restore_s = secondsSince(t0) / kReps;

        // Same app and compile under the recovery orchestrator with no
        // faults planned.
        resilience::ResilientRunner rr(app.prog, params,
                                       r.sharedMapResult());
        rr.setInputs(r.hostBuffers());
        fatal_if(!rr.runGolden().ok(), "%s: golden run failed",
                 spec.name.c_str());
        t0 = std::chrono::steady_clock::now();
        resilience::ResilienceReport rep = rr.run(resilience::FaultPlan{});
        double ckpt_s = secondsSince(t0);
        fatal_if(!rep.finalStatus.ok() || rep.cycles != res.cycles,
                 "%s: the orchestrator perturbed the run (%s, %llu vs "
                 "%llu)",
                 spec.name.c_str(), rep.finalStatus.toString().c_str(),
                 (unsigned long long)rep.cycles,
                 (unsigned long long)res.cycles);

        double words = static_cast<double>(cp.tape.size());
        std::printf(
            "%-14s | %10llu %9.1f | %9.1f %9.1f %9.1f | %7.2f%%\n",
            spec.name.c_str(), (unsigned long long)res.cycles,
            words / 1e3, save_s * 1e6, restore_s * 1e6,
            words / save_s / 1e6, (ckpt_s / base_s - 1.0) * 100.0);
        json_stats.set(spec.name + ".cycles", res.cycles);
        json_stats.set(spec.name + ".tapeWords",
                       static_cast<uint64_t>(words));
        bench::setScaled(json_stats, spec.name + ".save_us",
                         save_s * 1e6, 1.0);
        bench::setScaled(json_stats, spec.name + ".restore_us",
                         restore_s * 1e6, 1.0);
    }

    std::printf("\n=== SECDED ECC overhead (analytical models) ===\n");
    model::AreaModel area;
    model::PowerModel power;
    ArchParams off = params, on = params;
    off.pmu.ecc = off.dram.ecc = false;
    on.pmu.ecc = on.dram.ecc = true;
    double a_off = area.chipArea(off), a_on = area.chipArea(on);
    double p_off = power.peak(off), p_on = power.peak(on);
    std::printf("%-22s | %10s %10s | %8s\n", "metric", "ecc_off",
                "ecc_on", "delta");
    std::printf("%-22s | %10.3f %10.3f | %+7.2f%%\n", "PMU area (mm^2)",
                area.pmuArea(off.pmu), area.pmuArea(on.pmu),
                (area.pmuArea(on.pmu) / area.pmuArea(off.pmu) - 1.0) *
                    100.0);
    std::printf("%-22s | %10.1f %10.1f | %+7.2f%%\n", "chip area (mm^2)",
                a_off, a_on, (a_on / a_off - 1.0) * 100.0);
    std::printf("%-22s | %10.2f %10.2f | %+7.2f%%\n", "peak power (W)",
                p_off, p_on, (p_on / p_off - 1.0) * 100.0);
    bench::setScaled(json_stats, "ecc.chipAreaRatioMilli", a_on / a_off);
    bench::setScaled(json_stats, "ecc.peakPowerRatioMilli",
                     p_on / p_off);
    bench::writeStatsJson(json_path, json_stats, "resilience", params);
    return 0;
}

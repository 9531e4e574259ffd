#include "resilience/campaign.hpp"

#include <functional>
#include <ostream>

#include "apps/apps.hpp"
#include "base/logging.hpp"

namespace plast::resilience
{

namespace
{

const char *
mixName(FaultMix m)
{
    switch (m) {
      case FaultMix::kAll:
        return "all";
      case FaultMix::kProtected:
        return "protected";
      case FaultMix::kDatapath:
        return "datapath";
    }
    return "?";
}

} // namespace

CampaignResult
runCampaign(const CampaignOptions &opts)
{
    std::vector<const apps::AppSpec *> selected;
    if (opts.apps.empty()) {
        for (const auto &spec : apps::allApps())
            selected.push_back(&spec);
    }
    for (const auto &name : opts.apps) {
        const apps::AppSpec *found = apps::findApp(name);
        fatal_if(!found, "unknown app '%s'", name.c_str());
        selected.push_back(found);
    }

    ArchParams params = ArchParams::plasticineFinal();
    params.pmu.ecc = opts.ecc;
    params.dram.ecc = opts.ecc;

    CampaignResult out;
    for (const apps::AppSpec *spec : selected) {
        apps::AppInstance inst = spec->make(apps::Scale::kTiny);
        auto record = [&](uint64_t seed, ResilienceReport rep) {
            CampaignRun run;
            run.app = inst.name;
            run.seed = seed;
            run.unexplainedSdc =
                rep.cls == RunClass::kSilentCorruption && opts.ecc &&
                !rep.explainedSdc();
            out.byClass[static_cast<size_t>(rep.cls)]++;
            out.unexplainedSdc += run.unexplainedSdc ? 1 : 0;
            run.report = std::move(rep);
            out.runs.push_back(std::move(run));
        };

        // Record a failure once and move on: with no golden horizon
        // there is nothing meaningful to inject into.
        auto failed = [&](const Status &st) {
            ResilienceReport rep;
            rep.cls = RunClass::kCompileError;
            rep.finalStatus = st;
            rep.detail = st.message();
            record(opts.seed, std::move(rep));
        };

        // Stage inputs once (apps load through a Runner) and compile
        // once: the fault plans target this placement, and the golden
        // run and every unmasked attempt adopt it.
        Runner stage(inst.prog, params);
        inst.load(stage);
        if (Status st = stage.tryCompile(); !st.ok()) {
            failed(st);
            continue;
        }
        ResilientRunner rr(inst.prog, params, stage.sharedMapResult());
        rr.setInputs(stage.hostBuffers());
        if (Status st = rr.runGolden(); !st.ok()) {
            failed(st);
            continue;
        }

        const uint64_t appSalt = std::hash<std::string>{}(inst.name);
        for (uint32_t r = 0; r < opts.runsPerApp; ++r) {
            uint64_t seed =
                opts.seed + appSalt * 0x100000001b3ull + r * 8191;
            FaultPlan plan = FaultPlan::random(
                seed, opts.rate, rr.goldenCycles(),
                stage.mapResult().fabric, opts.mix, opts.includeHard);
            record(seed, rr.run(plan));
        }
    }
    return out;
}

void
CampaignResult::writeJson(std::ostream &os,
                          const CampaignOptions &opts) const
{
    os << "{\n";
    os << "  \"config\": {"
       << "\"rate\": " << opts.rate << ", \"seed\": " << opts.seed
       << ", \"runsPerApp\": " << opts.runsPerApp
       << ", \"ecc\": " << (opts.ecc ? "true" : "false")
       << ", \"hard\": " << (opts.includeHard ? "true" : "false")
       << ", \"kinds\": \"" << mixName(opts.mix) << "\"},\n";
    os << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const CampaignRun &run = runs[i];
        const ResilienceReport &rep = run.report;
        os << "    {\"app\": \"" << jsonEscape(run.app) << "\""
           << ", \"seed\": " << run.seed << ", \"class\": \""
           << runClassName(rep.cls) << "\""
           << ", \"cycles\": " << rep.cycles
           << ", \"eventsPlanned\": " << rep.eventsPlanned
           << ", \"eventsFired\": " << rep.eventsFired
           << ", \"firedUnprotected\": " << rep.firedUnprotected
           << ", \"eccCorrected\": " << rep.eccCorrected
           << ", \"dramCorrected\": " << rep.dramCorrected
           << ", \"dramRetries\": " << rep.dramRetries
           << ", \"rollbacks\": " << rep.rollbacks
           << ", \"restarts\": " << rep.restarts
           << ", \"remaps\": " << rep.remaps << ", \"unexplainedSdc\": "
           << (run.unexplainedSdc ? "true" : "false")
           << ", \"status\": \""
           << jsonEscape(rep.finalStatus.ok() ? "ok"
                                              : rep.finalStatus.message())
           << "\""
           << ", \"detail\": \"" << jsonEscape(rep.detail) << "\"}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"summary\": {";
    for (size_t c = 0; c < byClass.size(); ++c) {
        os << "\"" << runClassName(static_cast<RunClass>(c))
           << "\": " << byClass[c] << ", ";
    }
    os << "\"unexplainedSdc\": " << unexplainedSdc << "}\n";
    os << "}\n";
}

} // namespace plast::resilience

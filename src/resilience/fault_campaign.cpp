/**
 * @file
 * Fault-injection campaign driver:
 *
 *   fault_campaign --rate=50 --apps=all --runs=3 --out=campaign.json
 *
 * sweeps seeded fault plans over the evaluation benchmarks, recovers
 * where the machinery allows, prints a per-class tally, and writes the
 * full JSON report. Exits 1 iff any run ended in *unexplained* silent
 * data corruption (wrong output while only ECC-protected state was
 * upset and ECC was on) — the invariant CI enforces — and 2 on a
 * usage error.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/apps.hpp"
#include "base/flags.hpp"
#include "base/logging.hpp"
#include "resilience/campaign.hpp"

using namespace plast;
using namespace plast::resilience;

int
main(int argc, char **argv)
{
    setVerbose(false);
    CampaignOptions opts;
    std::string out_path;
    FlagSet flags("fault_campaign", "[options]");
    flags.real("rate", opts.rate, "fault events per million cycles",
               kMaxEventsPerMillionCycles)
        .value("apps", "all|NAME,...",
               "'all' or comma-separated benchmark names (default all)",
               [&opts](const std::string &v) {
                   opts.apps.clear();
                   std::stringstream ss(v == "all" ? "" : v);
                   for (std::string name; std::getline(ss, name, ',');) {
                       if (!apps::findApp(name))
                           return "unknown benchmark '" + name + "'";
                       opts.apps.push_back(name);
                   }
                   return std::string();
               })
        .num("runs", opts.runsPerApp, "fault plans per app")
        .num("seed", opts.seed, "base RNG seed")
        .sw("ecc", opts.ecc, "SECDED on scratchpads + DRAM (the default)")
        .sw("no-ecc", opts.ecc, "SECDED off", false)
        .word("kinds", opts.mix,
              {{"all", FaultMix::kAll},
               {"protected", FaultMix::kProtected},
               {"datapath", FaultMix::kDatapath}},
              "fault mix")
        .sw("hard", opts.includeHard,
            "allow a hard (stuck-unit) fault per plan")
        .str("out", out_path, "PATH",
             "write the JSON report (default stdout)");
    if (auto rc = flags.parse(argc, argv))
        return *rc;

    CampaignResult result = runCampaign(opts);

    std::printf("fault campaign: rate=%.1f/Mcyc ecc=%s hard=%s "
                "apps=%s runs=%zu\n",
                opts.rate, opts.ecc ? "on" : "off",
                opts.includeHard ? "yes" : "no",
                opts.apps.empty() ? "all" : "selected",
                result.runs.size());
    for (size_t c = 0; c < result.byClass.size(); ++c) {
        if (result.byClass[c]) {
            std::printf("  %-24s %u\n",
                        runClassName(static_cast<RunClass>(c)),
                        result.byClass[c]);
        }
    }
    std::printf("  %-24s %u\n", "unexplained SDC",
                result.unexplainedSdc);

    if (out_path.empty()) {
        result.writeJson(std::cout, opts);
    } else {
        std::ofstream ofs(out_path);
        fatal_if(!ofs, "cannot open '%s' for writing",
                 out_path.c_str());
        result.writeJson(ofs, opts);
        std::printf("wrote %s\n", out_path.c_str());
    }

    return result.unexplainedSdc ? 1 : 0;
}

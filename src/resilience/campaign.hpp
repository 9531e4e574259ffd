/**
 * @file
 * Fault-injection campaign: sweep seeded fault plans over the
 * evaluation benchmarks, drive every run through the recovery
 * orchestrator, and tally the outcome classes. The JSON report feeds
 * CI (which fails on any *unexplained* silent corruption — an SDC
 * while only ECC-protected state was upset and ECC was on).
 */

#ifndef PLAST_RESILIENCE_CAMPAIGN_HPP
#define PLAST_RESILIENCE_CAMPAIGN_HPP

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "resilience/recovery.hpp"

namespace plast::resilience
{

struct CampaignOptions
{
    double rate = 50.0; ///< fault events per million cycles
    uint64_t seed = 1;
    uint32_t runsPerApp = 3;
    bool ecc = true;    ///< scratchpad + DRAM SECDED on
    bool includeHard = false;
    FaultMix mix = FaultMix::kAll;
    /** Benchmark names (apps::allApps subset); empty = all 13. */
    std::vector<std::string> apps;
};

struct CampaignRun
{
    std::string app;
    uint64_t seed = 0;
    ResilienceReport report;
    bool unexplainedSdc = false;
};

struct CampaignResult
{
    std::vector<CampaignRun> runs;
    std::array<uint32_t, 7> byClass{}; ///< indexed by RunClass
    uint32_t unexplainedSdc = 0;

    void writeJson(std::ostream &os, const CampaignOptions &opts) const;
};

/** Run the sweep. Unknown app names are fatal. */
CampaignResult runCampaign(const CampaignOptions &opts);

} // namespace plast::resilience

#endif // PLAST_RESILIENCE_CAMPAIGN_HPP

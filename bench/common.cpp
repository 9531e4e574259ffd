#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "base/logging.hpp"

namespace plast::bench
{

FlagSet
flags(const char *driver, std::string &statsJson, bool *tiny)
{
    FlagSet f(driver, "[options]");
    f.str("stats-json", statsJson, "PATH",
          "write the provenance-stamped stats JSON");
    if (tiny)
        f.sw("tiny", *tiny, "tiny-scale workloads (CI smoke)");
    return f;
}

void
writeStatsJson(const std::string &path, const StatSet &stats,
               const std::string &benchName, const ArchParams &params)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    fatal_if(!os, "cannot open %s", path.c_str());
    stats.writeJson(os, {{"meta.arch", params.describe()},
                         {"meta.bench", benchName},
                         {"meta.schema", kStatsSchema}});
    std::printf("stats: %s\n", path.c_str());
}

void
setScaled(StatSet &stats, const std::string &name, double value,
          double scale)
{
    stats.set(name, static_cast<uint64_t>(std::llround(value * scale)));
}

} // namespace plast::bench

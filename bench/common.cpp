#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "base/logging.hpp"

namespace plast::bench
{

std::string
argValue(int argc, char **argv, const char *name)
{
    size_t n = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], name, n) == 0 && argv[i][n] == '=')
            return argv[i] + n + 1;
    }
    return "";
}

bool
argPresent(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return true;
    }
    return false;
}

std::string
statsJsonPath(int argc, char **argv)
{
    return argValue(argc, argv, "--stats-json");
}

void
writeStatsJson(const std::string &path, const StatSet &stats,
               const std::string &benchName, const ArchParams &params)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    fatal_if(!os, "cannot open %s", path.c_str());
    os << "{\n";
    os << "  \"meta.arch\": \"" << jsonEscape(params.describe())
       << "\",\n";
    os << "  \"meta.bench\": \"" << jsonEscape(benchName) << "\",\n";
    os << "  \"meta.schema\": \"" << kStatsSchema << "\"";
    for (const auto &[name, value] : stats.all())
        os << ",\n  \"" << name << "\": " << value;
    os << "\n}\n";
    std::printf("stats: %s\n", path.c_str());
}

void
setScaled(StatSet &stats, const std::string &name, double value,
          double scale)
{
    stats.set(name, static_cast<uint64_t>(std::llround(value * scale)));
}

} // namespace plast::bench

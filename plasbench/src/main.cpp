/**
 * @file
 * The benchmark program:
 *
 *   plasbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file.json>]
 *
 * Prints per-program rows and every metric by name and unit, then, as
 * the last line of standard output, one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * `correct` is true only when every checked output matched. Exit status
 * is 0 after a completed run (even with failed checks, which are
 * counted) and 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/logging.hpp"
#include "workloads.hpp"

using namespace plasbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "plasbench: %s\nusage: plasbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\nworkloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = val;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
        } else if (flag == "--trace") {
            opt.trace = val == "1";
            if (val != "0" && val != "1")
                return usage("--trace takes 0 or 1");
        } else if (flag == "--trace-out") {
            opt.traceOut = val;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (end && (*end != '\0' || end == val.c_str()))
            return usage(("bad number for " + flag).c_str());
    }
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");

    plast::setVerbose(false);
    Report rep;
    if (!runWorkload(opt, rep))
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    for (const std::string &line : rep.lines)
        std::printf("%s\n", line.c_str());
    for (const Metric &m : rep.metrics)
        std::printf("metric %-30s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = plast::strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        rep.tally.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(rep.tally.attempted),
        static_cast<unsigned long long>(rep.tally.failed));
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        json += plast::strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              i ? ", " : "", m.name.c_str(), m.value,
                              m.unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

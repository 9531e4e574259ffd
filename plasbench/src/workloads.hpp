/**
 * @file
 * The benchmark's four workloads. Each one builds its inputs, sets up
 * (several times across the run, for a mean set-up time), runs a timed
 * loop of a fixed amount of work sized from the requested seconds,
 * checks every output, and reports end-to-end metrics (untraced run) or
 * per-layer metrics (traced run).
 *
 *   sim-stream     DRAM-bound apps at default scale through Runner
 *   sim-onchip     on-chip (PCU/PMU-bound) apps at default scale
 *   serve-mixed    serve::Server, 2 workers, 16-entry result cache,
 *                  closed loop of 4 outstanding jobs over 52 identities
 *   compile-sweep  Runner::tryCompile on 13 tiny programs x 9 design
 *                  points, no simulation in the timed loop
 */

#ifndef PLASBENCH_WORKLOADS_HPP
#define PLASBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.hpp"

namespace plasbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where the traced run writes its Chrome trace ("" = nowhere). */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Report
{
    Tally tally;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result: per-program
     *  rows, sample counts, verdicts. */
    std::vector<std::string> lines;
};

const std::vector<std::string> &workloadNames();

/** Run one workload; false for an unknown workload name. */
bool runWorkload(const Options &opt, Report &rep);

} // namespace plasbench

#endif // PLASBENCH_WORKLOADS_HPP

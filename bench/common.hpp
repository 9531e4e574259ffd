/**
 * @file
 * Shared plumbing for the bench_* drivers: the common flag set and
 * the one provenance-stamped stats-JSON writer every driver emits
 * through (previously copy-pasted per driver). The output is the flat
 * key/value document bench_compare diffs and CI gates on:
 *
 *   {
 *     "meta.arch":   "<ArchParams::describe()>",   (string: ungated)
 *     "meta.bench":  "scheduler",
 *     "meta.schema": "plast.bench-stats.v1",
 *     "<counter>":   <number>,                      (sorted, gated)
 *     ...
 *   }
 *
 * String-valued "meta.*" provenance fields identify what produced the
 * numbers; bench_compare skips non-numeric values, so stamping them
 * never perturbs the gate.
 */

#ifndef PLAST_BENCH_COMMON_HPP
#define PLAST_BENCH_COMMON_HPP

#include <string>

#include "arch/params.hpp"
#include "base/flags.hpp"
#include "base/stats.hpp"

namespace plast::bench
{

inline constexpr const char *kStatsSchema = "plast.bench-stats.v1";

/** A driver's command line with the `--stats-json=PATH` flag every
 *  driver takes, and `--tiny` when `tiny` is given, already declared. */
FlagSet flags(const char *driver, std::string &statsJson,
              bool *tiny = nullptr);

/** Write the provenance-stamped stats JSON (StatSet::writeJson with
 *  the meta.* strings first); no-op when `path` is empty, fatal when
 *  the file cannot be opened. Prints the path. */
void writeStatsJson(const std::string &path, const StatSet &stats,
                    const std::string &benchName,
                    const ArchParams &params = ArchParams::plasticineFinal());

/** Scaled capture for model outputs: stores round(value * scale) so
 *  fractional model numbers (mm^2, ratios) survive the uint64 StatSet. */
void setScaled(StatSet &stats, const std::string &name, double value,
               double scale = 1000.0);

} // namespace plast::bench

#endif // PLAST_BENCH_COMMON_HPP

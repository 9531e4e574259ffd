/**
 * @file
 * The record of a finished run, and the two ways two records agree.
 * Checking a fabric against the reference evaluator (recordOf) or a
 * fault-free golden run is checkOutputs; checking one engine against
 * the other is checkWholeRun, which adds the cycles and every counter
 * but the host's, cycle ledgers included, each compared with ==. Both
 * return a typed kMismatch naming the first difference, scanning
 * argOuts by slot and then DRAM by MemId.
 */

#ifndef PLAST_RUNTIME_RECORD_HPP
#define PLAST_RUNTIME_RECORD_HPP

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "base/stats.hpp"
#include "base/status.hpp"
#include "base/types.hpp"
#include "pir/ir.hpp"

namespace plast
{

class Fabric;

namespace compiler
{
struct MapResult;
}

namespace pir
{
class Evaluator;
} // namespace pir

/** What a run produced, as every oracle compares it. */
struct RunRecord
{
    Cycles cycles = 0; ///< completion cycle
    StatSet stats;     ///< Fabric::dumpStats; "cycles" is post-drain
    std::vector<std::deque<Word>> argOuts;
    /** DRAM image per MemId (empty for on-chip memories, and for all
     *  when no fabric was built). Only readBackDram fills it. */
    std::vector<std::vector<Word>> dram;
};

/** Counters and argOuts of a run whose loop stopped at `cycles`. */
RunRecord captureRun(const Fabric &fab, const pir::Program &prog,
                     Cycles cycles);

/** Size the fabric's DRAM image to the compile's layout (each DRAM
 *  buffer plus a burst of slack; a run never grows it) and load the
 *  staged host buffers. */
void loadDram(Fabric &fab, const pir::Program &prog,
              const compiler::MapResult &map,
              const std::map<pir::MemId, std::vector<Word>> &host);

/** Fill `rec.dram` from the fabric's DRAM at the compile's layout. */
void readBackDram(const Fabric &fab, const pir::Program &prog,
                  const compiler::MapResult &map, RunRecord &rec);

/** A finished reference evaluation's outputs (no cycles, no counters). */
RunRecord recordOf(const pir::Evaluator &ev, const pir::Program &prog);

/** The same argOut streams and DRAM images; the message of a
 *  mismatch starts with `legs` ("ref vs fabric"). */
Status checkOutputs(const pir::Program &prog, const RunRecord &want,
                    const RunRecord &got, const std::string &legs);

/**
 * Two engines simulated the same machine: the outputs, the completion
 * and post-drain cycles and every counter are equal, per-unit cycle
 * ledgers (`<unit>.cycles.<class>`) included, except the host work
 * each engine did: `<unit>.cycles.stepped` and `trace.*`.
 */
Status checkWholeRun(const pir::Program &prog, const RunRecord &oracle,
                     const RunRecord &got, const std::string &legs);

} // namespace plast

#endif // PLAST_RUNTIME_RECORD_HPP

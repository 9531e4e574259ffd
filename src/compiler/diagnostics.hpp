/**
 * @file
 * Structured compile diagnostics: the machine-readable report every
 * compile attempt produces, successful or not. Instead of a bare error
 * string, callers (the fuzzer, fault-recovery, design-space sweeps,
 * bench_mapper) get the feasibility checks that ran, the binding
 * resource when one failed, every placement/routing attempt with its
 * congestion outcome, the spill actions taken, and the final routing
 * quality — enough to answer "why did this design fail?" and "how
 * close to capacity is this design?" without re-running the compiler.
 */

#ifndef PLAST_COMPILER_DIAGNOSTICS_HPP
#define PLAST_COMPILER_DIAGNOSTICS_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "arch/config.hpp"

namespace plast::compiler
{

/** One feasibility comparison: demand for a resource vs. capacity. */
struct ResourceCheck
{
    std::string resource; ///< e.g. "pcu", "pmu", "ag", "pmu.scratchpad"
    uint64_t demand = 0;
    uint64_t capacity = 0;
    bool over = false;
    std::string detail; ///< the offending entity, when per-entity

    std::string describe() const;
};

/** A switch-to-switch link whose track demand exceeded capacity. */
struct CongestionHotspot
{
    int fromCol = 0, fromRow = 0;
    int toCol = 0, toRow = 0;
    NetKind kind = NetKind::kVector;
    uint32_t demand = 0;   ///< nets wanting the link in the final round
    uint32_t capacity = 0; ///< tracks of this kind per link

    std::string describe() const;
};

/** Outcome of one placement attempt's routing run. */
struct RouteAttempt
{
    uint32_t placement = 0;     ///< placement attempt index (0 = greedy)
    uint32_t rounds = 0;        ///< negotiation rounds consumed
    uint32_t overusedLinks = 0; ///< links still over capacity at the end
    uint64_t routedHops = 0;    ///< sum of per-channel hops
    bool routed = false;
    /** Saturated switch side or cut when routing was proven impossible
     *  before negotiation (rounds == 0); not part of the JSON dump. */
    std::string proof;
};

/** One capacity spill the compiler applied instead of failing. */
struct SpillAction
{
    std::string memory;    ///< PIR memory spilled
    std::string node;      ///< metapipe controller whose depth dropped
    uint32_t fromBufs = 0; ///< N-buffer depth before the spill
    uint32_t toBufs = 0;   ///< depth that fits the scratchpad

    std::string describe() const;
};

/**
 * The full compile report. `feasible` mirrors MappingReport::ok;
 * `binding` names the resource that blocked compilation ("" when the
 * design mapped). All vectors are populated best-effort: a design
 * rejected by the demand check has checks but no attempts; a routable
 * design has attempts but no hotspots.
 */
struct CompileDiagnostics
{
    bool feasible = false;
    std::string binding;

    std::vector<ResourceCheck> checks;
    std::vector<RouteAttempt> attempts;
    std::vector<CongestionHotspot> hotspots;
    std::vector<SpillAction> spills;

    uint32_t placementAttempts = 0; ///< total placements tried
    uint32_t routeRounds = 0;       ///< rounds of the successful attempt
    uint64_t routedHops = 0;

    /** Used track-links / available track-links, per network. */
    double vectorTrackUtil = 0;
    double scalarTrackUtil = 0;
    double controlTrackUtil = 0;

    /** Human-readable multi-line report. */
    std::string summary() const;

    /** Machine-readable dump (stable key names; see DESIGN.md). */
    void dumpJson(std::ostream &os) const;
};

} // namespace plast::compiler

#endif // PLAST_COMPILER_DIAGNOSTICS_HPP

/**
 * @file
 * The compiler driver (§3.6): lowers a PIR program onto the Plasticine
 * fabric. Each pass runs once and hands the next an explicit result:
 *
 *   1. analysis (analysis.hpp): lower every compute leaf to a virtual
 *      PCU (vleaf), partition it into physical PCUs (partition), lay
 *      out DRAM and find each SRAM's readers, writers and N-buffering
 *   2. check total unit, port and scratchpad demand against the
 *      architecture; an infeasible design stops here, every check
 *      reported and the binding resource named
 *   3. construction (mapper.cpp): unit configurations, data channels
 *      and the token / credit control graph (control boxes in switches,
 *      §3.5) as a logical FabricConfig, with N-buffer depths from the
 *      spill fixpoint (analysis.hpp)
 *   4. place-and-route (place.hpp): units on the grid, every channel
 *      routed over the switch network with per-link track capacities;
 *      routed hop counts become channel latencies
 *
 * The result is a FabricConfig — the static "bitstream" the simulator
 * executes — plus a MappingReport with the utilization statistics the
 * evaluation section reports (Table 7, Figure 7).
 */

#ifndef PLAST_COMPILER_MAPPER_HPP
#define PLAST_COMPILER_MAPPER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "arch/params.hpp"
#include "compiler/diagnostics.hpp"
#include "compiler/partition.hpp"
#include "pir/ir.hpp"

namespace plast::compiler
{

/**
 * Physical units the placer must avoid — the degraded-mode re-mapping
 * input. After a hard fault is localized, recovery recompiles the
 * program with the faulted sites masked; placement treats them as
 * permanently occupied and capacity checks shrink accordingly.
 */
struct UnitMask
{
    std::vector<uint32_t> pcus; ///< physical PCU indices to avoid
    std::vector<uint32_t> pmus; ///< physical PMU indices to avoid
};

/**
 * Compile-pipeline knobs: the budgets of the placement-restart and
 * capacity-spill rungs (DESIGN.md §12).
 */
struct CompileOptions
{
    /** Placement attempts: 0 is the deterministic greedy placement,
     *  later ones perturb site costs with seeded noise and get a
     *  larger rip-up-and-reroute round budget. */
    uint32_t maxPlacementAttempts = 4;
    /** Shrink N-buffer depths (with the matching metapipe throttle)
     *  when a memory exceeds the physical scratchpad. */
    bool allowSpill = true;
};

struct MappingReport
{
    bool ok = false;
    std::string error;

    /** Structured compile diagnostics: feasibility checks, placement /
     *  routing attempts, congestion hotspots, spill actions. */
    CompileDiagnostics diag;

    uint32_t pcusUsed = 0;
    uint32_t pmusUsed = 0;
    uint32_t agsUsed = 0;
    uint32_t boxesUsed = 0;
    uint32_t channels = 0;
    uint64_t routedHops = 0;

    /** Aggregate chunk metrics (Figure 7 cost-model inputs). */
    uint32_t stagesUsed = 0;     ///< sum over PCUs of configured stages
    uint32_t regsUsed = 0;       ///< sum of peak live registers
    uint64_t sramWordsUsed = 0;  ///< logical words incl. N-buffering
    uint32_t fuActive = 0;       ///< stages x lanes over used PCUs

    std::string summary(const ArchParams &params) const;
};

struct MapResult
{
    FabricConfig fabric;
    MappingReport report;
    /** Byte base of each DRAM buffer in the accelerator address space
     *  (indexed by pir MemId; zero for SRAM entries). */
    std::vector<Addr> dramBase;
};

/**
 * Compile a program (arguments already bound) for the given
 * architecture, with faulted physical units masked out of placement
 * (graceful degradation after a hard fault). Malformed programs and
 * capacity overruns are reported via report.ok/error (with structured
 * report.diag) so design-space sweeps, fuzzers and recovery can
 * observe infeasible points; nothing reachable from user-supplied PIR
 * is fatal.
 */
MapResult compileProgram(const pir::Program &prog,
                         const ArchParams &params,
                         const UnitMask &mask = UnitMask{},
                         const CompileOptions &opts = CompileOptions{});

} // namespace plast::compiler

#endif // PLAST_COMPILER_MAPPER_HPP

/**
 * @file
 * Compile feasibility pre-check: totals the virtual PCU / PMU / AG /
 * control-box demand, scratchpad bytes and per-port channel pressure
 * of a program against the target ArchParams *before* running
 * placement and routing, and names the binding resource when the
 * design cannot fit.
 *
 * The counting rules mirror the mapper's unit-construction phases
 * exactly (one PCU per partition chunk, one PMU per (memory, reader)
 * pair, one AG per transfer / DRAM stream / stream-out sink, one
 * control box per outer controller on a switch of its own), so a
 * design the pre-check rejects would necessarily fail the full
 * pipeline — the pre-check just fails in microseconds with a
 * structured report instead of deep inside placement. Scratchpad
 * demand is checked at the N-buffer floor (`nbufMin`), not the
 * requested depth, so designs the capacity-spill path can still save
 * are NOT rejected here.
 */

#ifndef PLAST_COMPILER_PRECHECK_HPP
#define PLAST_COMPILER_PRECHECK_HPP

#include "arch/params.hpp"
#include "compiler/diagnostics.hpp"
#include "compiler/mapper.hpp"
#include "pir/ir.hpp"

namespace plast::compiler
{

/**
 * Total resource demand vs capacity. `feasible` is false when any
 * check is over; `binding` names the first binding resource. Leaves
 * whose lowering fails are skipped (the mapper reports those with a
 * per-leaf diagnosis).
 */
CompileDiagnostics precheckProgram(const pir::Program &prog,
                                   const ArchParams &params,
                                   const UnitMask &mask = UnitMask{});

} // namespace plast::compiler

#endif // PLAST_COMPILER_PRECHECK_HPP

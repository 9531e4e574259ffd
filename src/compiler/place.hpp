/**
 * @file
 * Place-and-route (§3.4, §3.6 step 6): put the units of a logical
 * FabricConfig on physical sites of the grid, route every channel over
 * the switch mesh, and turn routed hop counts into channel latencies.
 * Unroutable placements are retried with seeded perturbations and a
 * growing rip-up-and-reroute budget (DESIGN.md §12). The pass reads
 * only the config, so a different placer or router can replace it.
 */

#ifndef PLAST_COMPILER_PLACE_HPP
#define PLAST_COMPILER_PLACE_HPP

#include <string>

#include "compiler/mapper.hpp"

namespace plast::compiler
{

/**
 * Place and route `logical` (units in construction order, channels
 * between logical unit refs) on `logical.params`, avoiding the masked
 * sites, in at most `maxAttempts` placements. Fills `placed` with the
 * physical config and `diag` with every attempt, the hotspots of failed
 * ones and the routing quality; returns "" when a placement routed,
 * else why none did.
 */
std::string placeAndRoute(const FabricConfig &logical, const UnitMask &mask,
                          uint32_t maxAttempts, FabricConfig &placed,
                          CompileDiagnostics &diag);

} // namespace plast::compiler

#endif // PLAST_COMPILER_PLACE_HPP

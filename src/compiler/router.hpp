/**
 * @file
 * Switch-network routing (§3.4): assign every logical channel a path
 * over the (gridCols+1) x (gridRows+1) switch mesh under per-link,
 * per-network track capacities.
 *
 * The router is PathFinder-style negotiated congestion. Every net
 * routes every round — overuse is allowed mid-flight — and rounds
 * iterate rip-up-and-reroute with an escalating present-congestion
 * penalty plus an accumulating per-link history cost until no link is
 * oversubscribed (or the round budget runs out, reporting the
 * surviving hotspots). Before the first round a counting proof checks
 * every switch side and every row / column cut against the groups that
 * must cross it; a placement it proves unroutable returns at once with
 * rounds == 0 and the saturated links.
 *
 * Multicast: nets carrying the same `group` id fan out from one source
 * port, so a switch forks the bus instead of spending extra tracks —
 * they are routed as one Steiner-ish tree whose links count once.
 *
 * Each terminal joins its group's tree through an A* search from the
 * whole tree toward the terminal (Manhattan heuristic, (g + h, g, node)
 * pop order, equal costs resolved toward the smaller (g, node)
 * predecessor), which returns exactly the paths of a (cost, node)-
 * ordered Dijkstra search (DESIGN.md §12).
 */

#ifndef PLAST_COMPILER_ROUTER_HPP
#define PLAST_COMPILER_ROUTER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/geometry.hpp"
#include "compiler/diagnostics.hpp"

namespace plast::compiler
{

/** One channel to route between two switches. */
struct RouterNet
{
    SwitchCoord src;
    SwitchCoord dst;
    NetKind kind = NetKind::kVector;
    /** Nets sharing a group id fan out from the same (unit, port) and
     *  share routed tracks; ids must be unique per (source port, kind). */
    uint32_t group = 0;
    /** Output: path length in links (0 when src == dst). */
    uint32_t hops = 0;
};

/** Switch-mesh dimensions and per-kind track capacities. */
struct RouterGrid
{
    int cols = 0;
    int rows = 0;
    uint32_t vectorTracks = 0;
    uint32_t scalarTracks = 0;
    uint32_t controlTracks = 0;

    uint32_t trackCap(NetKind k) const
    {
        switch (k) {
          case NetKind::kScalar: return scalarTracks;
          case NetKind::kVector: return vectorTracks;
          case NetKind::kControl: return controlTracks;
        }
        return 1;
    }

    /** Directed switch-to-switch links in the mesh. */
    uint64_t
    directedLinks() const
    {
        if (cols <= 0 || rows <= 0)
            return 0;
        return 2ull * static_cast<uint64_t>(cols - 1) * rows +
               2ull * static_cast<uint64_t>(cols) * (rows - 1);
    }
};

struct RouterOptions
{
    /** Negotiation round budget (>= 1). */
    uint32_t maxRounds = 24;
};

struct RouteOutcome
{
    bool routed = false;
    /** Rounds consumed (0 when proven unroutable). */
    uint32_t rounds = 0;
    uint32_t overusedLinks = 0; ///< links still over capacity at the end
    uint64_t totalHops = 0;     ///< sum of per-net hops
    /** Worst oversubscribed links of the final round, or the links a
     *  proof saturated. */
    std::vector<CongestionHotspot> hotspots;
    /** Why the placement is unroutable when proven before negotiation
     *  (names the saturated switch side or cut); empty otherwise. */
    std::string proof;
    /** Claimed track-links per network kind (utilization numerator). */
    uint64_t linkLoad[3] = {0, 0, 0};

    double
    utilization(NetKind k, const RouterGrid &grid) const
    {
        uint64_t avail = grid.directedLinks() * grid.trackCap(k);
        return avail ? static_cast<double>(linkLoad[static_cast<int>(k)]) /
                           static_cast<double>(avail)
                     : 0.0;
    }
};

/**
 * Route all nets; fills each net's `hops` on success. Deterministic:
 * identical inputs produce identical paths.
 */
RouteOutcome routeNets(std::vector<RouterNet> &nets,
                       const RouterGrid &grid,
                       const RouterOptions &opts);

} // namespace plast::compiler

#endif // PLAST_COMPILER_ROUTER_HPP

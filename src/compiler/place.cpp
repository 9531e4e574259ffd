#include "compiler/place.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>

#include "arch/geometry.hpp"
#include "base/logging.hpp"
#include "base/rng.hpp"
#include "compiler/router.hpp"

namespace plast::compiler
{

namespace
{

/** Rip-up-and-reroute rounds of the first placement attempt; each
 *  later attempt gets 8 more (cost backoff). */
constexpr uint32_t kRouteRounds = 24;

/** One entry per placed unit class, indexed by UnitClass. */
template <typename T> using PerClass = std::array<T, 4>;
constexpr size_t kPcus = static_cast<size_t>(UnitClass::kPcu);
constexpr size_t kPmus = static_cast<size_t>(UnitClass::kPmu);
constexpr size_t kAgs = static_cast<size_t>(UnitClass::kAg);
constexpr size_t kBoxes = static_cast<size_t>(UnitClass::kBox);

size_t
cls(const UnitRef &u)
{
    return static_cast<size_t>(u.cls);
}

} // namespace

std::string
placeAndRoute(const FabricConfig &logical, const UnitMask &mask,
              uint32_t maxAttempts, FabricConfig &placed,
              CompileDiagnostics &diag)
{
    const ArchParams &P = logical.params;
    const Geometry geom(P);
    // The demand check has proven that every unit has a site: the PCUs
    // and PMUs fit the unmasked sites, the AGs their edge slots and
    // the control boxes the switches.
    panic_if(logical.ags.size() > P.numAgs,
             "%zu AGs passed the demand check", logical.ags.size());

    // Physical site of each logical unit per class, -1 while unplaced.
    // AGs take the fixed edge slots in order.
    PerClass<std::vector<int>> phys;
    phys[kPcus].assign(logical.pcus.size(), -1);
    phys[kPmus].assign(logical.pmus.size(), -1);
    phys[kBoxes].assign(logical.boxes.size(), -1);
    for (size_t a = 0; a < logical.ags.size(); ++a)
        phys[kAgs].push_back(static_cast<int>(a));

    // Adjacency from channels (logical unit pairs).
    PerClass<std::vector<std::vector<UnitRef>>> adj;
    for (size_t c = 0; c < adj.size(); ++c)
        adj[c].resize(phys[c].size());
    for (const ChannelCfg &ch : logical.channels) {
        if (ch.dst.unit.cls == UnitClass::kHost)
            continue;
        adj[cls(ch.src.unit)][ch.src.unit.index].push_back(ch.dst.unit);
        adj[cls(ch.dst.unit)][ch.dst.unit.index].push_back(ch.src.unit);
    }

    auto placedSwitch = [&](const UnitRef &u) -> SwitchCoord {
        int site = phys[cls(u)][u.index];
        if (site < 0)
            return {-1, -1};
        return geom.switchOf(u.cls, static_cast<uint32_t>(site));
    };

    // Placement-perturbation state for restart attempts: attempt 0 is
    // noise-free; attempt k adds noise seeded with k to the site cost,
    // growing with k so restarts explore progressively farther from
    // the greedy optimum.
    Rng rng(0);
    uint64_t noiseMag = 0;

    // Site -> switch per class, and each site's distance to the grid
    // centre (central sites win when a unit is unconstrained).
    const SwitchCoord centre{static_cast<int>(P.gridCols / 2),
                             static_cast<int>(P.gridRows / 2)};
    auto siteTable = [&](UnitClass unitCls, uint32_t capacity) {
        std::vector<std::pair<SwitchCoord, uint32_t>> t(capacity);
        for (uint32_t site = 0; site < capacity; ++site) {
            SwitchCoord sc = geom.switchOf(unitCls, site);
            t[site] = {sc, Geometry::manhattan(sc, centre)};
        }
        return t;
    };
    const auto pcuSites = siteTable(UnitClass::kPcu, P.numPcus());
    const auto pmuSites = siteTable(UnitClass::kPmu, P.numPmus());

    auto greedyPlace = [&](size_t c) {
        const bool isPcu = c == kPcus;
        const auto &sites = isPcu ? pcuSites : pmuSites;
        std::vector<int> &unitSite = phys[c];
        const uint32_t capacity = static_cast<uint32_t>(sites.size());
        std::vector<bool> taken(capacity, false);
        // Faulted sites are permanently occupied (degraded re-mapping).
        for (uint32_t m : isPcu ? mask.pcus : mask.pmus) {
            if (m < capacity)
                taken[m] = true;
        }
        std::vector<SwitchCoord> placedNbs;
        for (size_t u = 0; u < unitSite.size(); ++u) {
            placedNbs.clear();
            for (const UnitRef &nb : adj[c][u]) {
                SwitchCoord nc = placedSwitch(nb);
                if (nc.col >= 0)
                    placedNbs.push_back(nc);
            }
            int best = -1;
            uint64_t best_cost = ~0ull;
            for (uint32_t site = 0; site < capacity; ++site) {
                if (taken[site])
                    continue;
                const auto &[sc, toCentre] = sites[site];
                uint64_t cost = 0;
                for (const SwitchCoord &nc : placedNbs)
                    cost += Geometry::manhattan(sc, nc);
                cost = cost * 64 + toCentre;
                if (noiseMag)
                    cost += rng.nextBounded(noiseMag);
                if (cost < best_cost) {
                    best_cost = cost;
                    best = static_cast<int>(site);
                }
            }
            panic_if(best < 0, "no free site for unit %zu", u);
            unitSite[u] = best;
            taken[static_cast<size_t>(best)] = true;
        }
    };

    const RouterGrid grid{static_cast<int>(P.switchCols()),
                          static_cast<int>(P.switchRows()), P.vectorTracks,
                          P.scalarTracks, P.controlTracks};

    // Unroutable placements are retried with perturbed placements and
    // a growing round budget.
    const uint32_t attempts = std::max(1u, maxAttempts);

    std::vector<RouterNet> nets;
    RouteOutcome outcome;
    std::string lastFail;
    for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
        rng = Rng(attempt);
        noiseMag = static_cast<uint64_t>(attempt) * 96;
        for (size_t c : {kPcus, kPmus, kBoxes})
            std::fill(phys[c].begin(), phys[c].end(), -1);

        greedyPlace(kPcus);
        greedyPlace(kPmus);

        // Boxes: nearest free switch to the centroid of their neighbors.
        std::set<int> box_sites;
        for (size_t b = 0; b < phys[kBoxes].size(); ++b) {
            int64_t sx = 0, sy = 0, cnt = 0;
            for (const UnitRef &nb : adj[kBoxes][b]) {
                SwitchCoord nc = placedSwitch(nb);
                if (nc.col >= 0) {
                    sx += nc.col;
                    sy += nc.row;
                    ++cnt;
                }
            }
            int cx = cnt ? static_cast<int>(sx / cnt)
                         : static_cast<int>(P.gridCols / 2);
            int cy = cnt ? static_cast<int>(sy / cnt)
                         : static_cast<int>(P.gridRows / 2);
            int best = -1;
            int best_d = 1 << 30;
            for (uint32_t r = 0; r < P.switchRows(); ++r) {
                for (uint32_t c = 0; c < P.switchCols(); ++c) {
                    int site = static_cast<int>(r * P.switchCols() + c);
                    if (box_sites.count(site))
                        continue;
                    int d = std::abs(static_cast<int>(c) - cx) +
                            std::abs(static_cast<int>(r) - cy);
                    if (d < best_d) {
                        best_d = d;
                        best = site;
                    }
                }
            }
            panic_if(best < 0, "no free switch for control box %zu", b);
            phys[kBoxes][b] = best;
            box_sites.insert(best);
        }

        // Router nets from the logical channels. Multicast branches
        // from one source port share routed tracks — a switch forks
        // the bus instead of allocating a second track — so nets get a
        // group id per (source unit, port, network kind).
        std::map<std::tuple<UnitClass, uint16_t, uint8_t, int>, uint32_t>
            groupIds;
        nets.clear();
        nets.reserve(logical.channels.size());
        for (const ChannelCfg &ch : logical.channels) {
            RouterNet net;
            net.src = placedSwitch(ch.src.unit);
            net.dst = ch.dst.unit.cls == UnitClass::kHost
                          ? SwitchCoord{0, 0}
                          : placedSwitch(ch.dst.unit);
            net.kind = ch.kind;
            auto gkey = std::make_tuple(ch.src.unit.cls, ch.src.unit.index,
                                        ch.src.port,
                                        static_cast<int>(ch.kind));
            net.group = groupIds
                            .try_emplace(gkey, static_cast<uint32_t>(
                                                   groupIds.size()))
                            .first->second;
            nets.push_back(net);
        }

        RouterOptions ro;
        ro.maxRounds = kRouteRounds + attempt * 8;
        outcome = routeNets(nets, grid, ro);

        diag.attempts.push_back({attempt, outcome.rounds,
                                 outcome.overusedLinks, outcome.totalHops,
                                 outcome.routed, outcome.proof});
        diag.placementAttempts = attempt + 1;

        if (outcome.routed)
            break;
        if (!outcome.hotspots.empty())
            diag.hotspots = outcome.hotspots;
        if (!outcome.proof.empty()) {
            lastFail = "routing failed: proven unroutable: " +
                       outcome.proof;
        } else {
            lastFail = strfmt("routing failed: %u links over capacity "
                              "after %u rip-up rounds",
                              outcome.overusedLinks, outcome.rounds);
        }
    }

    if (!outcome.routed) {
        return attempts == 1 ? lastFail
                             : strfmt("%s (%u placement attempts)",
                                      lastFail.c_str(), attempts);
    }

    // ---- assemble the physical config -------------------------------
    placed.params = P;
    placed.pcus.resize(P.numPcus());
    placed.pmus.resize(P.numPmus());
    placed.ags.resize(P.numAgs);
    placed.boxes.resize(P.switchCols() * P.switchRows());
    auto site = [&](size_t c, size_t u) {
        return static_cast<size_t>(phys[c][u]);
    };
    for (size_t u = 0; u < logical.pcus.size(); ++u)
        placed.pcus[site(kPcus, u)] = logical.pcus[u];
    for (size_t u = 0; u < logical.pmus.size(); ++u)
        placed.pmus[site(kPmus, u)] = logical.pmus[u];
    for (size_t u = 0; u < logical.ags.size(); ++u) {
        placed.ags[site(kAgs, u)] = logical.ags[u];
        placed.ags[site(kAgs, u)].channel =
            static_cast<uint8_t>(geom.agChannel(static_cast<uint32_t>(u)));
    }
    for (size_t u = 0; u < logical.boxes.size(); ++u)
        placed.boxes[site(kBoxes, u)] = logical.boxes[u];
    placed.rootBox = phys[kBoxes][static_cast<size_t>(logical.rootBox)];
    placed.hostArgOuts = logical.hostArgOuts;

    placed.channels = logical.channels;
    for (size_t i = 0; i < placed.channels.size(); ++i) {
        ChannelCfg &ch = placed.channels[i];
        for (UnitRef *u : {&ch.src.unit, &ch.dst.unit}) {
            if (u->cls != UnitClass::kHost)
                u->index = static_cast<uint16_t>(site(cls(*u), u->index));
        }
        ch.latency = nets[i].hops + 2;
    }

    diag.routeRounds = outcome.rounds;
    diag.routedHops = outcome.totalHops;
    diag.vectorTrackUtil = outcome.utilization(NetKind::kVector, grid);
    diag.scalarTrackUtil = outcome.utilization(NetKind::kScalar, grid);
    diag.controlTrackUtil = outcome.utilization(NetKind::kControl, grid);
    return "";
}

} // namespace plast::compiler

/** @file Switch-network router: negotiated congestion must rip up and
 *  converge where one-shot routing thrashes, stay deterministic, never
 *  spend more hops than the recorded one-shot greedy counts, and keep
 *  mapping benchmarks on fabrics with fewer tracks than one-shot
 *  routing can handle. The routability proof must catch each bound it
 *  checks and never reject a routable placement. */

#include <gtest/gtest.h>

#include <map>

#include "apps/apps.hpp"
#include "base/rng.hpp"
#include "compiler/mapper.hpp"
#include "compiler/router.hpp"
#include "runtime/manifest.hpp"

using namespace plast;
using namespace plast::compiler;

namespace
{

RouterGrid
uniformGrid(int cols, int rows, uint32_t tracks)
{
    RouterGrid g;
    g.cols = cols;
    g.rows = rows;
    g.vectorTracks = tracks;
    g.scalarTracks = tracks;
    g.controlTracks = tracks;
    return g;
}

RouteOutcome
route(std::vector<RouterNet> &nets, const RouterGrid &grid,
      uint32_t maxRounds = 24)
{
    RouterOptions opts;
    opts.maxRounds = maxRounds;
    return routeNets(nets, grid, opts);
}

/** Route with a one-round budget and require a proof naming `where`. */
RouteOutcome
expectProven(std::vector<RouterNet> &nets, const RouterGrid &grid,
             const std::string &where)
{
    RouteOutcome out = route(nets, grid, 1);
    EXPECT_FALSE(out.routed);
    EXPECT_EQ(out.rounds, 0u);
    EXPECT_NE(out.proof.find(where), std::string::npos) << out.proof;
    EXPECT_FALSE(out.hotspots.empty());
    EXPECT_EQ(out.overusedLinks, out.hotspots.size());
    return out;
}

MapResult
compileApp(const apps::AppSpec &spec, const ArchParams &params)
{
    apps::AppInstance app = spec.make(apps::Scale::kTiny);
    return compileProgram(app.prog, params);
}

} // namespace

TEST(Router, RipUpResolvesContention)
{
    // 5x2 switch mesh, one track per link. Both nets want the row-0
    // shortest path: the first round oversubscribes links (1,0)-(2,0)
    // and (2,0)-(3,0), so convergence REQUIRES at least one rip-up
    // round that detours one net through row 1.
    RouterGrid grid = uniformGrid(5, 2, 1);
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {4, 0}, NetKind::kVector, 1});
    nets.push_back({{1, 0}, {3, 0}, NetKind::kVector, 2});

    RouteOutcome out = route(nets, grid);
    ASSERT_TRUE(out.routed);
    EXPECT_GE(out.rounds, 2u) << "contended start must trigger rip-up";
    EXPECT_EQ(out.overusedLinks, 0u);
    // Direct path (4) + detoured path (4), whichever net detours.
    EXPECT_EQ(out.totalHops, 8u);
    EXPECT_EQ(nets[0].hops + nets[1].hops, 8u);
}

TEST(Router, ReportsHotspotsWhenInfeasible)
{
    // Two single-track nets over the mesh's only row-0 edge: no
    // assignment exists. Switch (0,0) has one out-link for two groups,
    // so the proof rejects the placement without a single round and
    // names the oversubscribed link.
    RouterGrid grid = uniformGrid(2, 1, 1);
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {1, 0}, NetKind::kVector, 1});
    nets.push_back({{0, 0}, {1, 0}, NetKind::kVector, 2});

    RouteOutcome out = route(nets, grid, 6);
    EXPECT_FALSE(out.routed);
    EXPECT_EQ(out.rounds, 0u);
    EXPECT_GE(out.overusedLinks, 1u);
    ASSERT_EQ(out.hotspots.size(), 1u);
    const CongestionHotspot &h = out.hotspots[0];
    EXPECT_EQ(h.fromCol, 0);
    EXPECT_EQ(h.fromRow, 0);
    EXPECT_EQ(h.toCol, 1);
    EXPECT_EQ(h.toRow, 0);
    EXPECT_EQ(h.capacity, 1u);
    EXPECT_EQ(h.demand, 2u);
}

TEST(Router, ExhaustedBudgetReportsHotspots)
{
    // The rip-up instance passes every bound of the proof, so with a
    // one-round budget negotiation runs, fails, and reports the two
    // links both nets still share.
    RouterGrid grid = uniformGrid(5, 2, 1);
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {4, 0}, NetKind::kVector, 1});
    nets.push_back({{1, 0}, {3, 0}, NetKind::kVector, 2});

    RouteOutcome out = route(nets, grid, 1);
    EXPECT_FALSE(out.routed);
    EXPECT_EQ(out.rounds, 1u);
    EXPECT_TRUE(out.proof.empty()) << out.proof;
    ASSERT_EQ(out.hotspots.size(), 2u);
    for (int i = 0; i < 2; ++i) {
        const CongestionHotspot &h = out.hotspots[static_cast<size_t>(i)];
        EXPECT_EQ(h.fromCol, 1 + i);
        EXPECT_EQ(h.fromRow, 0);
        EXPECT_EQ(h.toCol, 2 + i);
        EXPECT_EQ(h.toRow, 0);
        EXPECT_EQ(h.capacity, 1u);
        EXPECT_EQ(h.demand, 2u);
    }
}

TEST(Router, ProofNeverRejectsRoutableInstances)
{
    // Instances routable by construction: each group's tree is a union
    // of random walks from its source (a walk may have no steps, which
    // puts the terminal on the source switch), and each kind gets
    // exactly the tracks the busiest link of the construction uses. A
    // legal routing exists, so the proof must never fire; negotiation
    // gets one round and may or may not converge in it.
    Rng rng(0x5eed);
    const int kDc[4] = {1, -1, 0, 0};
    const int kDr[4] = {0, 0, 1, -1};
    for (int inst = 0; inst < 2000; ++inst) {
        const int W = 1 + static_cast<int>(rng.nextBounded(17));
        const int H = 1 + static_cast<int>(rng.nextBounded(9));
        const size_t numLinks = static_cast<size_t>(W * H) * 4;
        std::vector<uint32_t> usage(3 * numLinks, 0);
        std::vector<RouterNet> nets;
        const uint32_t groups = 1 + static_cast<uint32_t>(
                                        rng.nextBounded(40));
        for (uint32_t g = 0; g < groups; ++g) {
            const NetKind kind = static_cast<NetKind>(rng.nextBounded(3));
            const SwitchCoord src{static_cast<int>(rng.nextBounded(W)),
                                  static_cast<int>(rng.nextBounded(H))};
            std::vector<bool> inTree(numLinks, false);
            const uint32_t terminals =
                1 + static_cast<uint32_t>(rng.nextBounded(4));
            for (uint32_t t = 0; t < terminals; ++t) {
                SwitchCoord at = src;
                const uint64_t steps = rng.nextBounded(2 * (W + H));
                for (uint64_t st = 0; st < steps; ++st) {
                    int dir = static_cast<int>(rng.nextBounded(4));
                    SwitchCoord nx{at.col + kDc[dir], at.row + kDr[dir]};
                    if (nx.col < 0 || nx.col >= W || nx.row < 0 ||
                        nx.row >= H)
                        continue;
                    inTree[static_cast<size_t>(at.row * W + at.col) * 4 +
                           static_cast<size_t>(dir)] = true;
                    at = nx;
                }
                nets.push_back({src, at, kind, g});
            }
            for (size_t l = 0; l < numLinks; ++l)
                if (inTree[l])
                    ++usage[static_cast<size_t>(kind) * numLinks + l];
        }
        uint32_t caps[3] = {0, 0, 0};
        for (int k = 0; k < 3; ++k)
            for (size_t l = 0; l < numLinks; ++l)
                caps[k] = std::max(
                    caps[k], usage[static_cast<size_t>(k) * numLinks + l]);
        RouterGrid grid;
        grid.cols = W;
        grid.rows = H;
        grid.scalarTracks = caps[static_cast<int>(NetKind::kScalar)];
        grid.vectorTracks = caps[static_cast<int>(NetKind::kVector)];
        grid.controlTracks = caps[static_cast<int>(NetKind::kControl)];

        RouteOutcome out = route(nets, grid, 1);
        ASSERT_EQ(out.rounds, 1u)
            << "instance " << inst << " (" << W << "x" << H << ", "
            << groups << " groups) proven unroutable: " << out.proof;
    }
}

TEST(Router, ProofCatchesCornerOutDegree)
{
    // Corner switch (0,0) has two out-links; three groups leave it.
    RouterGrid grid = uniformGrid(3, 3, 1);
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {2, 2}, NetKind::kVector, 1});
    nets.push_back({{0, 0}, {2, 1}, NetKind::kVector, 2});
    nets.push_back({{0, 0}, {1, 2}, NetKind::kVector, 3});
    RouteOutcome out =
        expectProven(nets, grid, "switch (0,0) must send 3 vector groups "
                                 "over 2 out-links");
    ASSERT_EQ(out.hotspots.size(), 2u);
    for (const CongestionHotspot &h : out.hotspots) {
        EXPECT_EQ(h.fromCol, 0);
        EXPECT_EQ(h.fromRow, 0);
        EXPECT_EQ(h.capacity, 1u);
        EXPECT_EQ(h.demand, 2u);
    }
}

TEST(Router, ProofCatchesTerminalInDegree)
{
    // Corner switch (2,2) has two in-links; three groups end there.
    RouterGrid grid = uniformGrid(3, 3, 1);
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {2, 2}, NetKind::kScalar, 1});
    nets.push_back({{1, 0}, {2, 2}, NetKind::kScalar, 2});
    nets.push_back({{0, 1}, {2, 2}, NetKind::kScalar, 3});
    RouteOutcome out = expectProven(
        nets, grid, "switch (2,2) must receive 3 scalar groups over 2 "
                    "in-links");
    ASSERT_EQ(out.hotspots.size(), 2u);
    for (const CongestionHotspot &h : out.hotspots) {
        EXPECT_EQ(h.toCol, 2);
        EXPECT_EQ(h.toRow, 2);
        EXPECT_EQ(h.kind, NetKind::kScalar);
    }
}

TEST(Router, ProofCatchesColumnCut)
{
    // Three groups cross from column 0 eastward over the two links of
    // cut 0|1; no switch side is saturated.
    RouterGrid grid = uniformGrid(3, 2, 1);
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {2, 1}, NetKind::kVector, 1});
    nets.push_back({{0, 0}, {1, 1}, NetKind::kVector, 2});
    nets.push_back({{0, 1}, {2, 0}, NetKind::kVector, 3});
    RouteOutcome out = expectProven(
        nets, grid, "column cut 0|1 must carry 3 vector groups eastward "
                    "over 2 links");
    ASSERT_EQ(out.hotspots.size(), 2u);
    for (const CongestionHotspot &h : out.hotspots) {
        EXPECT_EQ(h.fromCol, 0);
        EXPECT_EQ(h.toCol, 1);
        EXPECT_EQ(h.fromRow, h.toRow);
    }
}

TEST(Router, ProofCatchesRowCut)
{
    // The transpose: three groups cross row cut 0|1 southward over its
    // two links.
    RouterGrid grid = uniformGrid(2, 3, 1);
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {1, 2}, NetKind::kControl, 1});
    nets.push_back({{0, 0}, {1, 1}, NetKind::kControl, 2});
    nets.push_back({{1, 0}, {0, 2}, NetKind::kControl, 3});
    RouteOutcome out = expectProven(
        nets, grid, "row cut 0|1 must carry 3 control groups southward "
                    "over 2 links");
    ASSERT_EQ(out.hotspots.size(), 2u);
    for (const CongestionHotspot &h : out.hotspots) {
        EXPECT_EQ(h.fromRow, 0);
        EXPECT_EQ(h.toRow, 1);
        EXPECT_EQ(h.fromCol, h.toCol);
    }
}

TEST(Router, ProofCatchesZeroCapacityKind)
{
    // A kind with no tracks cannot leave any switch; same-switch
    // fan-out of the other kinds still needs nothing.
    RouterGrid grid = uniformGrid(2, 2, 4);
    grid.controlTracks = 0;
    std::vector<RouterNet> nets;
    nets.push_back({{0, 0}, {0, 0}, NetKind::kVector, 1});
    nets.push_back({{0, 0}, {1, 1}, NetKind::kControl, 2});
    RouteOutcome out = expectProven(
        nets, grid, "switch (0,0) must send 1 control groups over 2 "
                    "out-links of 0 track(s)");
    for (const CongestionHotspot &h : out.hotspots) {
        EXPECT_EQ(h.kind, NetKind::kControl);
        EXPECT_EQ(h.capacity, 0u);
        EXPECT_EQ(h.demand, 1u);
    }
}

TEST(Router, MulticastGroupSharesTracks)
{
    // A 1-track fabric cannot carry two unicast nets out of the same
    // edge, but a multicast group forks the bus inside switches: the
    // shared prefix counts once.
    RouterGrid grid = uniformGrid(3, 1, 1);
    std::vector<RouterNet> fanout;
    fanout.push_back({{0, 0}, {1, 0}, NetKind::kVector, 7});
    fanout.push_back({{0, 0}, {2, 0}, NetKind::kVector, 7});
    RouteOutcome out = route(fanout, grid);
    ASSERT_TRUE(out.routed);
    EXPECT_EQ(fanout[0].hops, 1u);
    EXPECT_EQ(fanout[1].hops, 2u);
    // Tree links claimed once: 2, not 3.
    EXPECT_EQ(out.linkLoad[static_cast<int>(NetKind::kVector)], 2u);

    std::vector<RouterNet> unicast;
    unicast.push_back({{0, 0}, {1, 0}, NetKind::kVector, 1});
    unicast.push_back({{0, 0}, {2, 0}, NetKind::kVector, 2});
    EXPECT_FALSE(
        route(unicast, grid, 6).routed);
}

TEST(Router, DeterministicAcrossRuns)
{
    // A congested random workload must route identically when re-run
    // on identical inputs: paths come from cost order, not iteration
    // luck.
    RouterGrid grid = uniformGrid(8, 8, 2);
    Rng rng(0xC0FFEE);
    std::vector<RouterNet> a;
    for (uint32_t i = 0; i < 48; ++i) {
        RouterNet n;
        n.src = {static_cast<int>(rng.nextBounded(8)),
                 static_cast<int>(rng.nextBounded(8))};
        n.dst = {static_cast<int>(rng.nextBounded(8)),
                 static_cast<int>(rng.nextBounded(8))};
        n.kind = static_cast<NetKind>(rng.nextBounded(3));
        n.group = 100 + i;
        a.push_back(n);
    }
    std::vector<RouterNet> b = a;

    RouteOutcome oa = route(a, grid);
    RouteOutcome ob = route(b, grid);
    ASSERT_TRUE(oa.routed);
    EXPECT_EQ(oa.rounds, ob.rounds);
    EXPECT_EQ(oa.totalHops, ob.totalHops);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].hops, b[i].hops) << "net " << i;
}

TEST(Router, SeededInstancesMatchRecordedRoutes)
{
    // Golden pin on the router's exact output. Seeded meshes from 2x2
    // to 17x9 with 0-3 tracks per kind carry 1-80 nets in multicast
    // groups (terminals on the source switch and repeated terminals
    // included), dense enough that some need rip-up, some exhaust a
    // 1-3 round budget and some are proven unroutable. Every net's
    // hops and each outcome's rounds, overuse, hops, hotspots, proof
    // and link load fold into one digest, that of routing every
    // terminal with a (cost, node)-ordered Dijkstra search: any changed
    // path changes it.
    Rng rng(0x90a1d);
    std::string record;
    uint32_t ripUp = 0, exhausted = 0, proven = 0;
    for (int inst = 0; inst < 500; ++inst) {
        RouterGrid grid;
        grid.cols = 2 + static_cast<int>(rng.nextBounded(16));
        grid.rows = 2 + static_cast<int>(rng.nextBounded(8));
        grid.vectorTracks = static_cast<uint32_t>(rng.nextBounded(4));
        grid.scalarTracks = static_cast<uint32_t>(rng.nextBounded(4));
        grid.controlTracks = static_cast<uint32_t>(rng.nextBounded(4));
        auto at = [&] {
            return SwitchCoord{
                static_cast<int>(rng.nextBounded(grid.cols)),
                static_cast<int>(rng.nextBounded(grid.rows))};
        };
        const uint32_t budget =
            rng.nextBounded(4) == 0
                ? 1 + static_cast<uint32_t>(rng.nextBounded(3))
                : 24;
        const uint32_t numNets =
            1 + static_cast<uint32_t>(rng.nextBounded(80));
        std::vector<RouterNet> nets;
        for (uint32_t g = 0; nets.size() < numNets; ++g) {
            // A kind without tracks only fans out on its own switch.
            const NetKind kind = static_cast<NetKind>(rng.nextBounded(3));
            const bool local = grid.trackCap(kind) == 0;
            const SwitchCoord src = at();
            const uint32_t terminals =
                1 + static_cast<uint32_t>(rng.nextBounded(4));
            for (uint32_t t = 0; t < terminals && nets.size() < numNets;
                 ++t) {
                SwitchCoord dst = local || rng.nextBounded(8) == 0 ? src
                                                                   : at();
                if (t > 0 && rng.nextBounded(8) == 0)
                    dst = nets.back().dst;
                nets.push_back({src, dst, kind, g});
            }
        }
        // Interleave the groups' nets.
        for (size_t i = nets.size(); i > 1; --i)
            std::swap(nets[i - 1], nets[rng.nextBounded(i)]);

        RouteOutcome out = route(nets, grid, budget);
        ripUp += out.routed && out.rounds >= 2;
        exhausted += !out.routed && out.rounds == budget;
        proven += out.rounds == 0;
        record += strfmt("%d %dx%d r%u o%u t%llu l%llu,%llu,%llu |", inst,
                         grid.cols, grid.rows, out.rounds,
                         out.overusedLinks,
                         static_cast<unsigned long long>(out.totalHops),
                         static_cast<unsigned long long>(out.linkLoad[0]),
                         static_cast<unsigned long long>(out.linkLoad[1]),
                         static_cast<unsigned long long>(out.linkLoad[2]));
        for (const RouterNet &n : nets)
            record += strfmt(" %u", n.hops);
        for (const CongestionHotspot &h : out.hotspots)
            record += strfmt(" (%d,%d)-(%d,%d)k%d:%u/%u", h.fromCol,
                             h.fromRow, h.toCol, h.toRow,
                             static_cast<int>(h.kind), h.demand,
                             h.capacity);
        record += " " + out.proof + "\n";
    }
    EXPECT_GE(ripUp, 20u);
    EXPECT_GE(exhausted, 20u);
    EXPECT_GE(proven, 20u);
    EXPECT_EQ(fnv1a64(record), 0x847975bd953ea6d8ull)
        << record.size() << " bytes";
}

TEST(Router, NegotiatedNeverWorseThanGreedyOnBenchmarks)
{
    // Per-terminal searches seeded from the whole multicast tree make
    // every uncongested route source-shortest, so no benchmark may
    // spend more hops than the one-shot greedy BFS router, whose last
    // recorded counts on the final architecture these are.
    const std::map<std::string, uint64_t> greedyHops = {
        {"InnerProduct", 90}, {"OuterProduct", 98},
        {"Black-Scholes", 634}, {"TPC-H Query 6", 218},
        {"GEMM", 253}, {"GDA", 285}, {"LogReg", 222}, {"SGD", 220},
        {"Kmeans", 253}, {"CNN", 366}, {"SMDV", 133},
        {"PageRank", 177}, {"BFS", 224}};
    ArchParams params = ArchParams::plasticineFinal();
    for (const auto &spec : apps::allApps()) {
        MapResult n = compileApp(spec, params);
        ASSERT_TRUE(n.report.ok) << spec.name << ": " << n.report.error;
        EXPECT_LE(n.report.routedHops, greedyHops.at(spec.name))
            << spec.name;
        EXPECT_GE(n.report.diag.routeRounds, 1u) << spec.name;
    }
}

TEST(Router, ReducedTrackSweepOnlyNegotiatedMaps)
{
    // Starve the switch fabric of tracks and sweep the benchmarks.
    // Black-Scholes at 2 vector tracks, and Kmeans and CNN at 1, need
    // rip-up-and-reroute plus placement restarts: one-shot greedy
    // routing fails all three. Only Black-Scholes at 1 track is out of
    // reach, and it fails diagnosed.
    std::vector<std::string> failed;
    for (uint32_t vec = 2; vec >= 1; --vec) {
        ArchParams params = ArchParams::plasticineFinal();
        params.vectorTracks = vec;
        params.scalarTracks = 2 * vec;
        for (const auto &spec : apps::allApps()) {
            MapResult n = compileApp(spec, params);
            if (n.report.ok)
                continue;
            failed.push_back(spec.name + "@" + std::to_string(vec));
            EXPECT_EQ(n.report.diag.binding, "routing") << spec.name;
        }
    }
    EXPECT_EQ(failed, std::vector<std::string>{"Black-Scholes@1"});
}

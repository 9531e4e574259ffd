#include "compiler/router.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <tuple>

#include "base/logging.hpp"

namespace plast::compiler
{

namespace
{

// Neighbor order: E, W, S, N.
const int kDc[4] = {1, -1, 0, 0};
const int kDr[4] = {0, 0, 1, -1};

// Negotiated-congestion cost weights. Base is the per-hop cost; history
// accumulates on links that stay oversubscribed across rounds; the
// present-congestion factor escalates linearly with the round number so
// early rounds explore short paths and later rounds force detours.
constexpr uint32_t kBaseCost = 16;
constexpr uint32_t kHistCost = 8;

int
kindIdx(NetKind k)
{
    return static_cast<int>(k);
}

/** One multicast group: a source and its terminals in net order. */
struct Group
{
    NetKind kind = NetKind::kVector;
    SwitchCoord src;
    std::vector<size_t> nets;
};

/** A link over capacity: `over` tracks beyond the per-link limit. */
struct Hot
{
    uint32_t over;
    int k;
    size_t link;
};

/** Worst eight hot links (stable in link order) into `out.hotspots`. */
void
reportHotspots(std::vector<Hot> &hots, const RouterGrid &grid,
               RouteOutcome &out)
{
    std::stable_sort(hots.begin(), hots.end(),
                     [](const Hot &a, const Hot &b) {
                         return a.over > b.over;
                     });
    if (hots.size() > 8)
        hots.resize(8);
    for (const Hot &h : hots) {
        CongestionHotspot spot;
        size_t node = h.link / 4;
        int dir = static_cast<int>(h.link % 4);
        spot.fromCol = static_cast<int>(node) % grid.cols;
        spot.fromRow = static_cast<int>(node) / grid.cols;
        spot.toCol = spot.fromCol + kDc[dir];
        spot.toRow = spot.fromRow + kDr[dir];
        spot.kind = static_cast<NetKind>(h.k);
        spot.capacity = grid.trackCap(spot.kind);
        spot.demand = spot.capacity + h.over;
        out.hotspots.push_back(spot);
    }
}

/**
 * Counting proof run before negotiation. A group with a terminal off
 * its source switch holds a track of its own on at least one link of
 * each of these sets, in any legal routing:
 *   - the out-links of its source switch;
 *   - the in-links of each terminal switch;
 *   - the links crossing each column or row cut between the source and
 *     a terminal, in the source-to-terminal direction.
 * L links carry at most L x trackCap groups, so a set asked to carry
 * more proves the placement unroutable however rip-up reroutes. On
 * proof, `out` gets the saturated links as hotspots (demand =
 * ceil(groups / L)), their count as overusedLinks, and a one-line
 * reason naming the first saturated switch or cut.
 */
bool
proveUnroutable(const std::vector<Group> &groups,
                const std::vector<RouterNet> &nets, const RouterGrid &grid,
                RouteOutcome &out)
{
    const int W = grid.cols;
    const int H = grid.rows;
    const size_t numNodes = static_cast<size_t>(W * H);
    const size_t numLinks = numNodes * 4;

    std::vector<uint32_t> hot(3 * numLinks, 0); // demand, 0 = not hot
    std::vector<size_t> lastGroup(numNodes, 0); // terminal dedup stamp
    std::string reason;
    uint32_t saturated = 0;

    for (int k = 0; k < 3; ++k) {
        const NetKind kind = static_cast<NetKind>(k);
        const uint32_t cap = grid.trackCap(kind);
        // Groups leaving / entering each switch, and crossing each cut
        // per direction as difference arrays over the cut index (cut c
        // lies between column or row c and c + 1).
        std::vector<uint32_t> outCnt(numNodes, 0), inCnt(numNodes, 0);
        std::vector<int32_t> east(W, 0), west(W, 0), south(H, 0),
            north(H, 0);
        for (size_t gi = 0; gi < groups.size(); ++gi) {
            const Group &g = groups[gi];
            if (g.kind != kind)
                continue;
            int minC = g.src.col, maxC = g.src.col;
            int minR = g.src.row, maxR = g.src.row;
            bool leaves = false;
            for (size_t n : g.nets) {
                const SwitchCoord &d = nets[n].dst;
                if (d == g.src)
                    continue;
                leaves = true;
                size_t dn = static_cast<size_t>(d.row * W + d.col);
                if (lastGroup[dn] != gi + 1) {
                    lastGroup[dn] = gi + 1;
                    ++inCnt[dn];
                }
                minC = std::min(minC, d.col);
                maxC = std::max(maxC, d.col);
                minR = std::min(minR, d.row);
                maxR = std::max(maxR, d.row);
            }
            if (!leaves)
                continue;
            ++outCnt[static_cast<size_t>(g.src.row * W + g.src.col)];
            ++east[g.src.col], --east[maxC];
            ++west[minC], --west[g.src.col];
            ++south[g.src.row], --south[maxR];
            ++north[minR], --north[g.src.row];
        }

        // One bound: `count` groups over `links` links, link(i) for
        // i < links. On saturation, mark the links and keep the first
        // reason; describe() words it around "N <kind> groups".
        auto bound = [&](uint32_t count, uint32_t links, auto link,
                         auto describe) {
            if (count <= static_cast<uint64_t>(links) * cap)
                return;
            const uint32_t demand = (count + links - 1) / links;
            for (uint32_t i = 0; i < links; ++i) {
                uint32_t &h = hot[static_cast<size_t>(k) * numLinks +
                                  link(i)];
                h = std::max(h, demand);
            }
            if (saturated++ == 0)
                reason = describe(strfmt("%u %s groups", count,
                                         netKindName(kind).c_str())) +
                         strfmt(" of %u track(s) each", cap);
        };

        for (int r = 0; r < H; ++r) {
            for (int c = 0; c < W; ++c) {
                const size_t v = static_cast<size_t>(r * W + c);
                uint32_t dirs[4], deg = 0;
                for (uint32_t dir = 0; dir < 4; ++dir) {
                    int nc = c + kDc[dir], nr = r + kDr[dir];
                    if (nc >= 0 && nc < W && nr >= 0 && nr < H)
                        dirs[deg++] = dir;
                }
                bound(outCnt[v], deg,
                      [&](uint32_t i) { return v * 4 + dirs[i]; },
                      [&](const std::string &what) {
                          return strfmt("switch (%d,%d) must send %s over "
                                        "%u out-links",
                                        c, r, what.c_str(), deg);
                      });
                // The in-link from the neighbour in `dir` is that
                // neighbour's link in the opposite direction.
                bound(inCnt[v], deg,
                      [&](uint32_t i) {
                          size_t nb = static_cast<size_t>(
                              (r + kDr[dirs[i]]) * W + c + kDc[dirs[i]]);
                          return nb * 4 + (dirs[i] ^ 1u);
                      },
                      [&](const std::string &what) {
                          return strfmt("switch (%d,%d) must receive %s "
                                        "over %u in-links",
                                        c, r, what.c_str(), deg);
                      });
            }
        }
        int32_t eastSum = 0, westSum = 0;
        for (int c = 0; c + 1 < W; ++c) {
            eastSum += east[c];
            westSum += west[c];
            auto cut = [&](const char *dir) {
                return [=](const std::string &what) {
                    return strfmt("column cut %d|%d must carry %s %s over "
                                  "%d links",
                                  c, c + 1, what.c_str(), dir, H);
                };
            };
            bound(static_cast<uint32_t>(eastSum), static_cast<uint32_t>(H),
                  [&](uint32_t r) {
                      return static_cast<size_t>(r * W + c) * 4 + 0;
                  },
                  cut("eastward"));
            bound(static_cast<uint32_t>(westSum), static_cast<uint32_t>(H),
                  [&](uint32_t r) {
                      return static_cast<size_t>(r * W + c + 1) * 4 + 1;
                  },
                  cut("westward"));
        }
        int32_t southSum = 0, northSum = 0;
        for (int r = 0; r + 1 < H; ++r) {
            southSum += south[r];
            northSum += north[r];
            auto cut = [&](const char *dir) {
                return [=](const std::string &what) {
                    return strfmt("row cut %d|%d must carry %s %s over %d "
                                  "links",
                                  r, r + 1, what.c_str(), dir, W);
                };
            };
            bound(static_cast<uint32_t>(southSum), static_cast<uint32_t>(W),
                  [&](uint32_t c) {
                      return static_cast<size_t>(r * W + c) * 4 + 2;
                  },
                  cut("southward"));
            bound(static_cast<uint32_t>(northSum), static_cast<uint32_t>(W),
                  [&](uint32_t c) {
                      return static_cast<size_t>((r + 1) * W + c) * 4 +
                             3;
                  },
                  cut("northward"));
        }
    }
    if (saturated == 0)
        return false;

    std::vector<Hot> hots;
    for (int k = 0; k < 3; ++k) {
        const uint32_t cap = grid.trackCap(static_cast<NetKind>(k));
        for (size_t l = 0; l < numLinks; ++l) {
            uint32_t d = hot[static_cast<size_t>(k) * numLinks + l];
            if (d)
                hots.push_back({d - cap, k, l});
        }
    }
    out.overusedLinks = static_cast<uint32_t>(hots.size());
    out.proof = saturated == 1
                    ? reason
                    : strfmt("%s (and %u more saturated bounds)",
                             reason.c_str(), saturated - 1);
    reportHotspots(hots, grid, out);
    return true;
}

} // namespace

RouteOutcome
routeNets(std::vector<RouterNet> &nets, const RouterGrid &grid,
          const RouterOptions &opts)
{
    RouteOutcome out;
    const int W = grid.cols;
    const int H = grid.rows;
    const size_t numNodes = static_cast<size_t>(W * H);
    const size_t numLinks = numNodes * 4;

    // Group nets into multicast trees, preserving first-seen order.
    std::vector<Group> groups;
    std::map<uint32_t, size_t> groupOf;
    for (size_t n = 0; n < nets.size(); ++n) {
        auto [it, fresh] = groupOf.try_emplace(nets[n].group,
                                               groups.size());
        if (fresh) {
            groups.push_back({nets[n].kind, nets[n].src, {}});
        }
        groups[it->second].nets.push_back(n);
    }

    if (proveUnroutable(groups, nets, grid, out))
        return out; // rounds == 0: nothing was negotiated

    // Per-kind present usage and cross-round history, indexed by
    // directed link id (node * 4 + direction).
    std::vector<uint32_t> usage[3], hist[3];
    for (int k = 0; k < 3; ++k) {
        usage[k].assign(numLinks, 0);
        hist[k].assign(numLinks, 0);
    }

    auto nodeOf = [&](const SwitchCoord &c) {
        return static_cast<size_t>(c.row * W + c.col);
    };

    // A* scratch, reused across terminals, groups and rounds. The heap
    // pops in (g + h, g, node) order; entries are distinct, so the pop
    // sequence does not depend on how the heap is laid out.
    constexpr uint64_t kInf = ~0ull;
    using QE = std::tuple<uint64_t, uint64_t, size_t>; // (g + h, g, node)
    const std::greater<QE> later;
    std::vector<QE> heap;
    std::vector<uint64_t> dist(numNodes);
    std::vector<uint32_t> hopCnt(numNodes);
    std::vector<int32_t> prevLink(numNodes);
    std::vector<int32_t> depth(numNodes, -1);
    std::vector<size_t> tree; // the group's tree nodes, source first
    std::vector<uint8_t> claimed(numLinks);

    const uint32_t maxRounds = std::max(1u, opts.maxRounds);
    for (uint32_t round = 1; round <= maxRounds; ++round) {
        for (int k = 0; k < 3; ++k)
            std::fill(usage[k].begin(), usage[k].end(), 0u);
        const uint64_t presFac = static_cast<uint64_t>(kBaseCost) * round;
        out.totalHops = 0;

        for (const Group &g : groups) {
            const int k = kindIdx(g.kind);
            const uint32_t cap = grid.trackCap(g.kind);
            for (size_t v : tree)
                depth[v] = -1;
            tree.assign(1, nodeOf(g.src));
            std::fill(claimed.begin(), claimed.end(),
                      static_cast<uint8_t>(0));
            depth[nodeOf(g.src)] = 0;

            for (size_t n : g.nets) {
                RouterNet &net = nets[n];
                size_t dstNode = nodeOf(net.dst);
                if (depth[dstNode] >= 0) {
                    // Terminal already on the tree (same-switch fanout).
                    net.hops = static_cast<uint32_t>(depth[dstNode]);
                    out.totalHops += net.hops;
                    continue;
                }

                // A* from the whole tree toward the terminal. Seeding
                // each tree node at cost depth*base makes a terminal's
                // final cost its hop count from the source, so
                // uncongested routes are source-shortest. Every link
                // costs at least kBaseCost, so base x Manhattan distance
                // is consistent and every optimal predecessor of a node
                // pops before it; keeping the smaller (g, node) one on
                // equal cost (never displacing a seed) then returns the
                // paths and hop counts of a (cost, node)-ordered
                // Dijkstra.
                auto toDst = [&](int c, int r) {
                    return kBaseCost *
                           static_cast<uint64_t>(std::abs(c - net.dst.col) +
                                                 std::abs(r - net.dst.row));
                };
                std::fill(dist.begin(), dist.end(), kInf);
                std::fill(prevLink.begin(), prevLink.end(), -1);
                heap.clear();
                for (size_t v : tree) {
                    dist[v] = static_cast<uint64_t>(depth[v]) * kBaseCost;
                    hopCnt[v] = static_cast<uint32_t>(depth[v]);
                    uint64_t h = toDst(static_cast<int>(v) % W,
                                       static_cast<int>(v) / W);
                    heap.push_back({dist[v] + h, dist[v], v});
                }
                std::make_heap(heap.begin(), heap.end(), later);
                while (!heap.empty()) {
                    std::pop_heap(heap.begin(), heap.end(), later);
                    auto [fcost, cost, v] = heap.back();
                    heap.pop_back();
                    if (cost != dist[v])
                        continue;
                    if (v == dstNode)
                        break;
                    int vc = static_cast<int>(v) % W;
                    int vr = static_cast<int>(v) / W;
                    for (int dir = 0; dir < 4; ++dir) {
                        int nc = vc + kDc[dir], nr = vr + kDr[dir];
                        if (nc < 0 || nc >= W || nr < 0 || nr >= H)
                            continue;
                        size_t nb = static_cast<size_t>(nr * W + nc);
                        size_t link = v * 4 + static_cast<size_t>(dir);
                        uint64_t c;
                        if (claimed[link]) {
                            // Already part of this group's tree: the
                            // track is paid for, only the hop counts.
                            c = kBaseCost;
                        } else {
                            uint32_t u = usage[k][link];
                            uint32_t over = u + 1 > cap ? u + 1 - cap : 0;
                            c = kBaseCost +
                                static_cast<uint64_t>(kHistCost) *
                                    hist[k][link] +
                                presFac * over;
                        }
                        const uint64_t ng = cost + c;
                        bool take = ng < dist[nb];
                        if (take) {
                            dist[nb] = ng;
                            heap.push_back({ng + toDst(nc, nr), ng, nb});
                            std::push_heap(heap.begin(), heap.end(),
                                           later);
                        } else if (ng == dist[nb] && prevLink[nb] >= 0) {
                            size_t pv =
                                static_cast<size_t>(prevLink[nb]) / 4;
                            take = std::pair(cost, v) <
                                   std::pair(dist[pv], pv);
                        }
                        if (take) {
                            hopCnt[nb] = hopCnt[v] + 1;
                            prevLink[nb] = static_cast<int32_t>(link);
                        }
                    }
                }

                // Claim the new path back to the tree.
                size_t v = dstNode;
                while (depth[v] < 0) {
                    depth[v] = static_cast<int32_t>(hopCnt[v]);
                    tree.push_back(v);
                    size_t link = static_cast<size_t>(prevLink[v]);
                    if (!claimed[link]) {
                        claimed[link] = 1;
                        usage[k][link]++;
                    }
                    v = link / 4;
                }
                net.hops = static_cast<uint32_t>(depth[dstNode]);
                out.totalHops += net.hops;
            }
        }

        // Convergence check: any link over capacity?
        uint32_t overused = 0;
        for (int k = 0; k < 3; ++k) {
            const uint32_t cap =
                grid.trackCap(static_cast<NetKind>(k));
            for (size_t l = 0; l < numLinks; ++l) {
                if (usage[k][l] > cap)
                    ++overused;
            }
        }
        out.rounds = round;
        if (overused == 0) {
            out.routed = true;
            out.overusedLinks = 0;
            for (int k = 0; k < 3; ++k)
                for (size_t l = 0; l < numLinks; ++l)
                    out.linkLoad[k] += usage[k][l];
            return out;
        }
        out.overusedLinks = overused;
        for (int k = 0; k < 3; ++k) {
            const uint32_t cap =
                grid.trackCap(static_cast<NetKind>(k));
            for (size_t l = 0; l < numLinks; ++l) {
                if (usage[k][l] > cap)
                    hist[k][l] += usage[k][l] - cap;
            }
        }
    }

    // Round budget exhausted: report the surviving hotspots.
    out.routed = false;
    std::vector<Hot> hots;
    for (int k = 0; k < 3; ++k) {
        const uint32_t cap = grid.trackCap(static_cast<NetKind>(k));
        for (size_t l = 0; l < numLinks; ++l) {
            out.linkLoad[k] += usage[k][l];
            if (usage[k][l] > cap)
                hots.push_back({usage[k][l] - cap, k, l});
        }
    }
    reportHotspots(hots, grid, out);
    return out;
}

} // namespace plast::compiler

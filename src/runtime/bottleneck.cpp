#include "runtime/bottleneck.hpp"

#include <algorithm>
#include <set>

#include "base/logging.hpp"

namespace plast
{

namespace
{

uint64_t
refKey(const UnitRef &r)
{
    return (static_cast<uint64_t>(r.cls) << 32) | r.index;
}

/** "pcu03 (dot.mul)" */
std::string
describe(const SimUnit &u)
{
    return strfmt("%s%02u (%s)", unitClassName(u.ref().cls).c_str(),
                  u.ref().index, u.name().c_str());
}

/** Largest ledger bucket; earlier class wins ties (kActive first). */
CycleClass
dominantOf(const CycleAcct &a)
{
    size_t best = 0;
    uint64_t best_v = 0;
    for (size_t c = 0; c < kNumCycleClasses; ++c) {
        uint64_t v = a.by[c];
        if (v > best_v) {
            best_v = v;
            best = c;
        }
    }
    return static_cast<CycleClass>(best);
}

/** How hard a unit is working (or waiting on memory): the blame walk
 *  follows the most-loaded neighbor. */
uint64_t
loadOf(const Fabric &f, const UnitRef &r)
{
    const SimUnit *u = f.unit(r);
    if (!u)
        return 0;
    const CycleAcct a = u->ledger(f.now());
    return a.of(CycleClass::kActive) + a.of(CycleClass::kDramWait) +
           a.of(CycleClass::kBankConflict);
}

bool
isDataKind(NetKind k)
{
    return k == NetKind::kScalar || k == NetKind::kVector;
}

/** Busiest DRAM channel and its bus utilization percent. */
uint32_t
busiestDramChannel(const Fabric &f, double &pct)
{
    const DramModel &d = f.mem().dram();
    uint32_t best = 0;
    uint64_t best_busy = 0;
    for (uint32_t c = 0; c < d.numChannels(); ++c) {
        uint64_t busy = d.channel(c).stats().busBusyCycles;
        if (busy > best_busy) {
            best_busy = busy;
            best = c;
        }
    }
    pct = f.now() ? 100.0 * static_cast<double>(best_busy) /
                        static_cast<double>(f.now())
                  : 0.0;
    return best;
}

double
pctOf(uint64_t part, uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

} // namespace

BottleneckReport
analyzeBottlenecks(const Fabric &fabric)
{
    const FabricConfig &cfg = fabric.config();
    BottleneckReport rep;
    rep.cycles = fabric.now();

    for (const SimUnit *u : fabric.units()) {
        BottleneckReport::UnitRow row;
        row.ref = u->ref();
        row.label = describe(*u);
        row.acct = u->ledger(rep.cycles);
        row.dominant = dominantOf(row.acct);
        rep.units.push_back(std::move(row));
    }

    // ---- blame walk from the root controller -------------------------
    UnitRef cur{UnitClass::kBox, static_cast<uint16_t>(cfg.rootBox)};
    const SimUnit *root = fabric.unit(cur);
    if (!root)
        return rep;
    const uint64_t root_non_active =
        rep.cycles - root->ledger(rep.cycles).of(CycleClass::kActive);
    uint64_t root_dominant_blocked = 0;

    std::set<uint64_t> visited;
    while (true) {
        const SimUnit *u = fabric.unit(cur);
        if (!u)
            break;
        std::string label = describe(*u);
        if (!visited.insert(refKey(cur)).second) {
            rep.critical = strfmt("cyclic wait through %s", label.c_str());
            break;
        }
        const CycleAcct a = u->ledger(rep.cycles);
        CycleClass dom = dominantOf(a);
        uint64_t dom_cycles = a.of(dom);
        rep.blamePath.push_back(
            strfmt("%s: dominant %s, %llu cycles (%.0f%% of run)",
                   label.c_str(), cycleClassName(dom),
                   static_cast<unsigned long long>(dom_cycles),
                   pctOf(dom_cycles, rep.cycles)));
        if (rep.blamePath.size() == 1)
            root_dominant_blocked = dom_cycles;

        double root_share = pctOf(root_dominant_blocked, root_non_active);

        if (dom == CycleClass::kActive) {
            rep.critical = strfmt(
                "compute-bound at %s (active %.0f%% of cycles; %.0f%% "
                "of root-controller stall follows this path)",
                label.c_str(), pctOf(a.of(CycleClass::kActive), rep.cycles),
                root_share);
            break;
        }
        if (dom == CycleClass::kDramWait) {
            double ch_pct = 0.0;
            uint32_t ch = cur.cls == UnitClass::kAg
                              ? fabric.agPtr(cur.index)->cfg().channel
                              : busiestDramChannel(fabric, ch_pct);
            if (cur.cls == UnitClass::kAg) {
                const auto &cs =
                    fabric.mem().dram().channel(ch).stats();
                ch_pct = pctOf(cs.busBusyCycles, rep.cycles);
            }
            rep.critical = strfmt(
                "DRAM channel %u saturated (%.0f%% bus busy), gating %s "
                "— %.0f%% of root-controller stall",
                ch, ch_pct, label.c_str(), root_share);
            break;
        }
        if (dom == CycleClass::kBankConflict) {
            rep.critical = strfmt(
                "scratchpad bank conflicts at %s (%llu cycles, %.0f%% "
                "of run) — %.0f%% of root-controller stall",
                label.c_str(),
                static_cast<unsigned long long>(dom_cycles),
                pctOf(dom_cycles, rep.cycles), root_share);
            break;
        }

        // Walk an edge: upstream for starvation/credits, downstream for
        // backpressure; pick the most-loaded neighbor.
        bool upstream =
            dom == CycleClass::kInputStarved || dom == CycleClass::kIdle ||
            dom == CycleClass::kCreditBlocked;
        bool control_edge = dom == CycleClass::kCreditBlocked;
        UnitRef next{};
        uint64_t next_load = 0;
        bool found = false;
        for (const ChannelCfg &ch : cfg.channels) {
            const UnitRef &here = upstream ? ch.dst.unit : ch.src.unit;
            const UnitRef &there = upstream ? ch.src.unit : ch.dst.unit;
            if (!(here == cur) || there.cls == UnitClass::kHost)
                continue;
            if (control_edge ? ch.kind != NetKind::kControl
                             : !isDataKind(ch.kind) && upstream)
                continue;
            if (visited.count(refKey(there)))
                continue;
            uint64_t l = loadOf(fabric, there);
            if (!found || l > next_load) {
                next = there;
                next_load = l;
                found = true;
            }
        }
        if (!found) {
            rep.critical = strfmt(
                "%s blocked on %s with no further on-fabric %s to blame",
                label.c_str(), cycleClassName(dom),
                upstream ? "producer" : "consumer");
            break;
        }
        cur = next;
    }

    return rep;
}

DeadlockReport
analyzeDeadlock(const Fabric &fabric)
{
    DeadlockReport rep;
    rep.bottlenecks = analyzeBottlenecks(fabric);

    for (const SimUnit *u : fabric.units()) {
        if (!u->busy())
            continue;
        DeadlockReport::WaitingUnit w;
        w.ref = u->ref();
        w.label = describe(*u);
        w.stuck = u->stuck();
        w.stalledFor = fabric.now() - u->lastProgressAt();
        rep.waiting.push_back(std::move(w));
    }
    std::sort(rep.waiting.begin(), rep.waiting.end(),
              [](const auto &a, const auto &b) {
                  return a.stalledFor > b.stalledFor;
              });

    for (const StreamBase *s : fabric.heldStreams())
        rep.held.push_back({s->name(), s->available()});

    // Diagnosis, most specific cause first.
    const DeadlockReport::WaitingUnit *frozen = nullptr;
    for (const auto &w : rep.waiting) {
        if (w.stuck)
            frozen = &w;
    }
    if (frozen) {
        rep.verdict = strfmt(
            "hard-faulted %s is frozen mid-run; %zu downstream unit(s) "
            "starved",
            frozen->label.c_str(), rep.waiting.size() - 1);
    } else if (rep.waiting.empty() && rep.held.empty()) {
        rep.verdict = "no unit mid-run and no tokens in flight — a "
                      "start/done control token was lost";
    } else if (rep.waiting.empty()) {
        rep.verdict = strfmt(
            "%zu stream(s) hold undelivered tokens but every unit is "
            "between runs — a control token was lost or misrouted",
            rep.held.size());
    } else {
        rep.verdict = strfmt(
            "%s stalled longest (%llu cycles) with %zu stream(s) "
            "holding tokens — circular or starved dependence",
            rep.waiting.front().label.c_str(),
            static_cast<unsigned long long>(
                rep.waiting.front().stalledFor),
            rep.held.size());
    }
    return rep;
}

std::string
DeadlockReport::render() const
{
    std::string out =
        strfmt("Deadlock report (hung at cycle %llu)\n",
               static_cast<unsigned long long>(bottlenecks.cycles));
    out += strfmt("Verdict: %s\n", verdict.c_str());
    if (!waiting.empty()) {
        out += "Units mid-run:\n";
        for (const WaitingUnit &w : waiting) {
            out += strfmt("  %-28s %s stalled %llu cycles\n",
                          w.label.c_str(),
                          w.stuck ? "[STUCK]" : "       ",
                          static_cast<unsigned long long>(w.stalledFor));
        }
    }
    if (!held.empty()) {
        out += "Streams holding tokens:\n";
        for (const HeldStream &h : held)
            out += strfmt("  %-40s %zu element(s)\n", h.name.c_str(),
                          h.tokens);
    }
    out += bottlenecks.render();
    return out;
}

std::string
BottleneckReport::render() const
{
    std::string out = strfmt("Bottleneck report (%llu cycles)\n",
                             static_cast<unsigned long long>(cycles));
    out += strfmt("  %-28s %7s", "unit", "active%");
    for (size_t c = 1; c < kNumCycleClasses; ++c)
        out += strfmt(" %7.7s",
                      cycleClassName(static_cast<CycleClass>(c)));
    out += "\n";
    for (const UnitRow &r : units) {
        out += strfmt("  %-28s", r.label.c_str());
        for (uint64_t v : r.acct.by)
            out += strfmt(" %6.1f%%", pctOf(v, cycles));
        out += "\n";
    }
    out += "Blame path:\n";
    for (size_t i = 0; i < blamePath.size(); ++i)
        out += strfmt("  %s%s\n", i == 0 ? "" : "-> ",
                      blamePath[i].c_str());
    out += strfmt("Critical: %s\n",
                  critical.empty() ? "(no verdict)" : critical.c_str());
    return out;
}

} // namespace plast

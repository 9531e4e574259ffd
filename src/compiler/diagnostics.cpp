#include "compiler/diagnostics.hpp"

#include <ostream>

#include "base/logging.hpp"

namespace plast::compiler
{

namespace
{

const char *
kindName(NetKind k)
{
    switch (k) {
      case NetKind::kScalar: return "scalar";
      case NetKind::kVector: return "vector";
      case NetKind::kControl: return "control";
    }
    return "?";
}

} // namespace

std::string
ResourceCheck::describe() const
{
    std::string s = strfmt("%s: %llu needed, %llu available%s",
                           resource.c_str(),
                           static_cast<unsigned long long>(demand),
                           static_cast<unsigned long long>(capacity),
                           over ? " [OVER]" : "");
    if (!detail.empty())
        s += " (" + detail + ")";
    return s;
}

std::string
CongestionHotspot::describe() const
{
    return strfmt("%s link (%d,%d)->(%d,%d): %u nets on %u tracks",
                  kindName(kind), fromCol, fromRow, toCol, toRow, demand,
                  capacity);
}

std::string
SpillAction::describe() const
{
    return strfmt("memory '%s': N-buffer depth %u -> %u (metapipe '%s' "
                  "throttled to match)",
                  memory.c_str(), fromBufs, toBufs, node.c_str());
}

std::string
CompileDiagnostics::summary() const
{
    std::string s =
        feasible
            ? strfmt("compile ok: %u placement attempt(s), %u routing "
                     "round(s), %llu routed hops",
                     placementAttempts, routeRounds,
                     static_cast<unsigned long long>(routedHops))
            : strfmt("compile infeasible: binding resource '%s'",
                     binding.c_str());
    s += strfmt("\n  track utilization: vector %.1f%%, scalar %.1f%%, "
                "control %.1f%%",
                100.0 * vectorTrackUtil, 100.0 * scalarTrackUtil,
                100.0 * controlTrackUtil);
    for (const ResourceCheck &c : checks) {
        if (c.over || !feasible)
            s += "\n  check " + c.describe();
    }
    for (const RouteAttempt &a : attempts) {
        if (!a.proof.empty()) {
            s += strfmt("\n  attempt %u: proven unroutable: %s",
                        a.placement, a.proof.c_str());
            continue;
        }
        s += strfmt("\n  attempt %u: %s after %u round(s), %u overused "
                    "link(s), %llu hops",
                    a.placement, a.routed ? "routed" : "congested",
                    a.rounds, a.overusedLinks,
                    static_cast<unsigned long long>(a.routedHops));
    }
    for (const CongestionHotspot &h : hotspots)
        s += "\n  hotspot " + h.describe();
    for (const SpillAction &sp : spills)
        s += "\n  spill " + sp.describe();
    return s;
}

void
CompileDiagnostics::dumpJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"feasible\": " << (feasible ? "true" : "false") << ",\n";
    os << "  \"binding\": \"" << jsonEscape(binding) << "\",\n";
    os << "  \"placementAttempts\": " << placementAttempts << ",\n";
    os << "  \"routeRounds\": " << routeRounds << ",\n";
    os << "  \"routedHops\": " << routedHops << ",\n";
    os << strfmt("  \"vectorTrackUtil\": %.6f,\n", vectorTrackUtil);
    os << strfmt("  \"scalarTrackUtil\": %.6f,\n", scalarTrackUtil);
    os << strfmt("  \"controlTrackUtil\": %.6f,\n", controlTrackUtil);
    os << "  \"checks\": [";
    for (size_t i = 0; i < checks.size(); ++i) {
        const ResourceCheck &c = checks[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"resource\": \"" << jsonEscape(c.resource)
           << "\", \"demand\": " << c.demand
           << ", \"capacity\": " << c.capacity
           << ", \"over\": " << (c.over ? "true" : "false")
           << ", \"detail\": \"" << jsonEscape(c.detail) << "\"}";
    }
    os << (checks.empty() ? "],\n" : "\n  ],\n");
    os << "  \"attempts\": [";
    for (size_t i = 0; i < attempts.size(); ++i) {
        const RouteAttempt &a = attempts[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"placement\": " << a.placement
           << ", \"rounds\": " << a.rounds
           << ", \"overusedLinks\": " << a.overusedLinks
           << ", \"routedHops\": " << a.routedHops
           << ", \"routed\": " << (a.routed ? "true" : "false") << "}";
    }
    os << (attempts.empty() ? "],\n" : "\n  ],\n");
    os << "  \"hotspots\": [";
    for (size_t i = 0; i < hotspots.size(); ++i) {
        const CongestionHotspot &h = hotspots[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"from\": [" << h.fromCol << ", " << h.fromRow
           << "], \"to\": [" << h.toCol << ", " << h.toRow
           << "], \"kind\": \"" << kindName(h.kind)
           << "\", \"demand\": " << h.demand
           << ", \"capacity\": " << h.capacity << "}";
    }
    os << (hotspots.empty() ? "],\n" : "\n  ],\n");
    os << "  \"spills\": [";
    for (size_t i = 0; i < spills.size(); ++i) {
        const SpillAction &sp = spills[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"memory\": \"" << jsonEscape(sp.memory)
           << "\", \"node\": \"" << jsonEscape(sp.node)
           << "\", \"fromBufs\": " << sp.fromBufs
           << ", \"toBufs\": " << sp.toBufs << "}";
    }
    os << (spills.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
}

} // namespace plast::compiler

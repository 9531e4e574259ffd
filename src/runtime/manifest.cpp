#include "runtime/manifest.hpp"

#include "base/logging.hpp"

namespace plast
{

namespace
{

std::string
hex64(uint64_t v)
{
    return strfmt("0x%016llx", (unsigned long long)v);
}

} // namespace

void
RunManifest::writeJson(std::ostream &os) const
{
    // Fixed top-level key order — the schema contract. Maps emit in
    // std::map (sorted) order, so equal manifests are byte-identical.
    os << "{\n";
    os << "  \"schema\": \"" << kSchema << "\",\n";
    os << "  \"program\": \"" << jsonEscape(program) << "\",\n";
    os << "  \"pir_hash\": \"" << hex64(pirHash) << "\",\n";
    os << "  \"arch_hash\": \"" << hex64(archHash) << "\",\n";
    os << "  \"config_hash\": \"" << hex64(configHash) << "\",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"sched_mode\": \"" << jsonEscape(schedMode) << "\",\n";
    os << "  \"sim_mode\": \"" << jsonEscape(simMode) << "\",\n";
    os << "  \"arch\": \"" << jsonEscape(arch) << "\",\n";
    os << "  \"compile\": {\n";
    os << "    \"compiled\": " << (compiled ? "true" : "false") << ",\n";
    os << "    \"binding\": \"" << jsonEscape(binding) << "\",\n";
    os << "    \"placement_attempts\": " << placementAttempts << ",\n";
    os << "    \"route_rounds\": " << routeRounds << ",\n";
    os << "    \"routed_hops\": " << routedHops << ",\n";
    os << "    \"spills\": " << spills << "\n";
    os << "  },\n";
    os << "  \"outcome\": \"" << jsonEscape(outcome) << "\",\n";
    os << "  \"detail\": \"" << jsonEscape(detail) << "\",\n";
    os << "  \"cycles\": " << cycles << ",\n";
    os << "  \"timings_us\": {";
    bool first = true;
    for (const auto &[name, us] : timingsUs) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << us;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";
    os << "  \"metrics\": {";
    first = true;
    for (const auto &[name, value] : metrics) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << value;
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n";
    os << "}\n";
}

} // namespace plast

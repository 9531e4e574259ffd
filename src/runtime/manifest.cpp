#include "runtime/manifest.hpp"

#include "base/logging.hpp"

namespace plast
{

uint64_t
fnv1a64(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
archParamsText(const ArchParams &p)
{
    std::string out;
    auto kv = [&out](const char *k, uint64_t v) {
        out += strfmt("%s %llu\n", k, (unsigned long long)v);
    };
    kv("grid.cols", p.gridCols);
    kv("grid.rows", p.gridRows);
    kv("pcu.lanes", p.pcu.lanes);
    kv("pcu.stages", p.pcu.stages);
    kv("pcu.regsPerStage", p.pcu.regsPerStage);
    kv("pcu.scalarIns", p.pcu.scalarIns);
    kv("pcu.scalarOuts", p.pcu.scalarOuts);
    kv("pcu.vectorIns", p.pcu.vectorIns);
    kv("pcu.vectorOuts", p.pcu.vectorOuts);
    kv("pcu.counters", p.pcu.counters);
    kv("pcu.fifoDepth", p.pcu.fifoDepth);
    kv("pmu.banks", p.pmu.banks);
    kv("pmu.bankKilobytes", p.pmu.bankKilobytes);
    kv("pmu.stages", p.pmu.stages);
    kv("pmu.regsPerStage", p.pmu.regsPerStage);
    kv("pmu.scalarIns", p.pmu.scalarIns);
    kv("pmu.scalarOuts", p.pmu.scalarOuts);
    kv("pmu.vectorIns", p.pmu.vectorIns);
    kv("pmu.vectorOuts", p.pmu.vectorOuts);
    kv("pmu.counters", p.pmu.counters);
    kv("pmu.fifoDepth", p.pmu.fifoDepth);
    kv("pmu.ecc", p.pmu.ecc ? 1 : 0);
    kv("dram.channels", p.dram.channels);
    kv("dram.burstBytes", p.dram.burstBytes);
    kv("dram.banksPerChannel", p.dram.banksPerChannel);
    kv("dram.rowBytes", p.dram.rowBytes);
    kv("dram.tRcd", p.dram.tRcd);
    kv("dram.tCas", p.dram.tCas);
    kv("dram.tRp", p.dram.tRp);
    kv("dram.tRas", p.dram.tRas);
    kv("dram.tBurst", p.dram.tBurst);
    kv("dram.queueDepth", p.dram.queueDepth);
    kv("dram.ecc", p.dram.ecc ? 1 : 0);
    kv("numAgs", p.numAgs);
    kv("coalescerCacheLines", p.coalescerCacheLines);
    kv("coalescerMaxOutstanding", p.coalescerMaxOutstanding);
    kv("vectorTracks", p.vectorTracks);
    kv("scalarTracks", p.scalarTracks);
    kv("controlTracks", p.controlTracks);
    return out;
}

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

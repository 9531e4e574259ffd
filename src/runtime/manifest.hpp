/**
 * @file
 * The per-run manifest: one schema-stable JSON record describing a
 * complete Runner execution — what ran (PIR hash, architecture hash,
 * mapped-config hash, seed), how it ran (scheduler mode, datapath
 * engine), how compilation went (CompileDiagnostics summary), how the
 * run ended (typed outcome), what it measured (metric snapshot) and
 * where the host time went (phase timings from HostProfiler).
 *
 * This is the structured run record the compile-and-serve daemon
 * (ROADMAP) will queue, cache-key and serve: (pirHash, archHash) is
 * the content address of a compiled config, and the manifest is the
 * receipt a job returns. Key order is fixed (tested by a golden in
 * tests/test_telemetry.cpp); add new keys, never reorder or rename.
 *
 * Hashes use FNV-1a (base/hash.hpp) over canonical text serializations
 * (pir/serialize for programs, arch/cfgio for configs and params), so
 * they are stable across platforms and standard-library versions.
 */

#ifndef PLAST_RUNTIME_MANIFEST_HPP
#define PLAST_RUNTIME_MANIFEST_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "base/hash.hpp"

namespace plast
{

struct RunManifest
{
    static constexpr const char *kSchema = "plast.run-manifest.v1";

    // ---- identity ----------------------------------------------------
    std::string program;     ///< PIR program name
    uint64_t pirHash = 0;    ///< fnv1a64(programToText(prog))
    uint64_t archHash = 0;   ///< fnv1a64(archParamsText(params)) (arch/cfgio)
    uint64_t configHash = 0; ///< fnv1a64(configToText(mapped)); 0 until compiled
    uint64_t seed = 0;       ///< caller-supplied (fuzz / campaign); 0 = none
    std::string schedMode;   ///< "activity" | "dense"
    std::string simMode;     ///< "interp" | "specialized"
    std::string arch;        ///< ArchParams::describe() (human context)

    // ---- compile summary (CompileDiagnostics) ------------------------
    bool compiled = false;
    std::string binding;            ///< blocking resource ("" when mapped)
    uint32_t placementAttempts = 0;
    uint32_t routeRounds = 0;
    uint64_t routedHops = 0;
    uint32_t spills = 0;

    // ---- outcome -----------------------------------------------------
    std::string outcome; ///< statusCodeName of the final status
    std::string detail;  ///< status message ("" when ok)
    uint64_t cycles = 0;

    // ---- measurements ------------------------------------------------
    /** Host wall-clock per phase (HostProfiler totals at harvest). */
    std::map<std::string, uint64_t> timingsUs;
    /** Flat counter snapshot (Fabric::dumpStats et al.). */
    std::map<std::string, uint64_t> metrics;

    /** Stable-schema JSON: fixed top-level key order, sorted maps. */
    void writeJson(std::ostream &os) const;
};

} // namespace plast

#endif // PLAST_RUNTIME_MANIFEST_HPP

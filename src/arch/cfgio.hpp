/**
 * @file
 * Textual serialization of FabricConfig — the human-readable form of
 * the configuration "bitstream". Every field of every structure in
 * arch/config.hpp round-trips: write -> read -> write is a string
 * fixpoint (property-tested over the compiled benchmarks), so saved
 * configurations can be diffed, archived and reloaded exactly. One
 * field walk per structure (base/textio.hpp) drives both directions;
 * configToText's bytes are the configHash input, and the ArchParams
 * walk is the one text form of the machine (archParamsText).
 */

#ifndef PLAST_ARCH_CFGIO_HPP
#define PLAST_ARCH_CFGIO_HPP

#include <iosfwd>
#include <string>

#include "arch/config.hpp"

namespace plast
{

class TextWriter;
class TextReader;

/** Write `cfg` as a .pcfg text document. */
void writeConfig(std::ostream &os, const FabricConfig &cfg);

/** Convenience: writeConfig into a string. */
std::string configToText(const FabricConfig &cfg);

/** The params lines of a .pcfg (`params`, `pcu_params`, `pmu_params`,
 *  `dram_params`): every ArchParams field, and the pre-image of
 *  RunManifest::archHash and serve::hashArch. */
std::string archParamsText(const ArchParams &params);

/** Parse a .pcfg document. Returns true on success; on failure
 *  returns false and, when `err` is non-null, stores a diagnostic. */
bool readConfig(std::istream &is, FabricConfig &out,
                std::string *err = nullptr);

/** The .pcfg field walks themselves, for formats that embed a config
 *  (serve store records) or its params lines (fuzz seed files). */
void configFields(TextWriter &ar, const FabricConfig &cfg);
void configFields(TextReader &ar, FabricConfig &cfg);
void paramsFields(TextWriter &ar, const ArchParams &params);
void paramsFields(TextReader &ar, ArchParams &params);

} // namespace plast

#endif // PLAST_ARCH_CFGIO_HPP

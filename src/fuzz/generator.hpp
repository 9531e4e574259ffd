/**
 * @file
 * Seeded random generation of PIR programs and architecture
 * parameters for differential fuzzing.
 *
 * Programs are built through pir::Builder from a small library of
 * kernel templates (stream-folds, tiled maps, SRAM producer/consumer
 * chains, FlatMap pipelines), so every generated program passes
 * pir::validateProgram by construction. All randomness is drawn from a
 * caller-supplied Rng: the same seed always yields the same (program,
 * architecture) pair on every platform.
 */

#ifndef PLAST_FUZZ_GENERATOR_HPP
#define PLAST_FUZZ_GENERATOR_HPP

#include "arch/params.hpp"
#include "base/rng.hpp"
#include "pir/ir.hpp"

namespace plast::fuzz
{

/**
 * Sample a legal ArchParams point. Lanes and banks stay at 16 (the
 * compiler's vectorization width); everything else varies within the
 * design-space bounds swept by the paper's Figure 7, plus the
 * coalescing units' outstanding-burst budget (2, 3 or the default 64),
 * whose small values split long tile-load rows into short commands.
 */
ArchParams sampleArch(Rng &rng);

/**
 * Sample a deliberately undersized ArchParams point: tiny grids, few
 * AGs, one or two tracks per link, kilobyte scratchpads. Programs from
 * generateProgram frequently exceed these fabrics, exercising the
 * compiler's demand-check / spill / diagnosed-failure paths (the
 * `fuzz_pir --oversize` mode).
 */
ArchParams sampleTightArch(Rng &rng);

/**
 * Generate a random valid program: 1-3 independent kernels under a
 * sequential root, each wrapped in its own outer controller so the
 * shrinker can drop whole kernels at once. DRAM input buffers follow
 * the fill-by-name convention of fuzz::fillInputs ('f...' = floats,
 * 'i...' = small non-negative ints, 'o...' = zeroed outputs), so a
 * serialized program alone is a complete reproducer. A tiled map's
 * row tile is 2-4 vectors times `tileScale`, plus 0, 2 or 9 words.
 */
pir::Program generateProgram(Rng &rng, uint32_t tileScale = 1);

} // namespace plast::fuzz

#endif // PLAST_FUZZ_GENERATOR_HPP

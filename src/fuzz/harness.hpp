/**
 * @file
 * The fuzzing harness: drives seeded generate -> diff -> shrink
 * cycles, persists failing cases as standalone .pir seed files (the
 * sampled architecture travels in the file's params lines, inputs are
 * reconstructed by the fill-by-name convention), and replays seed
 * files deterministically — the corpus under tests/corpus runs as
 * ordinary ctest cases through replayFile.
 */

#ifndef PLAST_FUZZ_HARNESS_HPP
#define PLAST_FUZZ_HARNESS_HPP

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/diff.hpp"
#include "fuzz/generator.hpp"

namespace plast::fuzz
{

/** One reproducible fuzz case: program + architecture + fault mode. */
struct FuzzCase
{
    pir::Program prog;
    ArchParams params;
    /** Hardware-fault injection mode (the seed file's `inject` line):
     *  0 = clean, 1 = canned reduction-stage opcode flip, 2 = seeded
     *  scratchpad/DRAM upsets from the resilience fault library (ECC
     *  off, so they surface as output corruption), 3 = seeded datapath
     *  upsets (PCU pipeline registers + scratch words). */
    uint32_t inject = 0;
    /** Oversize case (the seed file's `diagnosed` line): the
     *  design likely exceeds the fabric; the oracle is "tryCompile
     *  returns a clean structured diagnosis, or the compile (possibly
     *  after capacity spilling) passes validated execution" — never a
     *  crash. */
    bool expectDiagnosed = false;
};

/** Deterministically derive the case for one seed. */
FuzzCase caseForSeed(uint64_t caseSeed, uint32_t inject = 0);

/** Derive an oversize case: a program with large row tiles paired
 *  with a deliberately undersized fabric (sampleTightArch). */
FuzzCase oversizeCaseForSeed(uint64_t caseSeed);

/** Run the oversize oracle on one case (see
 *  FuzzCase::expectDiagnosed). kOk = cleanly diagnosed or compiled +
 *  validated; kMismatch = diagnosis missing its structure or a spilled
 *  compile that computes wrong results. */
DiffResult runOversizeCase(const FuzzCase &c);

/**
 * The canned hardware fault: flip the combiner opcode of the first
 * reduction-tree stage of the first PCU that has one (kFAdd->kFMin,
 * kFMin<->kFMax, ...). A no-op on programs without cross-lane folds.
 */
std::function<void(FabricConfig &)> reduceStageFault();

/** Run one case differentially (applies the fault when requested). */
DiffResult runCase(const FuzzCase &c, bool checkDense = true);

// ---- seed files -----------------------------------------------------

/** A seed file is one field walk: the .pcfg params lines (every
 *  ArchParams field, as archParamsText writes them), `inject <mode>`,
 *  `diagnosed <0|1>`, then the .pir program. The reader fails with a
 *  message naming the last keyword it read. */
void writeSeedFile(std::ostream &os, const FuzzCase &c);
bool readSeedFile(std::istream &is, FuzzCase &out,
                  std::string *err = nullptr);

/** Replay a .pir seed file from disk; kInvalid with detail on IO or
 *  parse errors. */
DiffResult replayFile(const std::string &path, bool checkDense = true);

// ---- the fuzz loop --------------------------------------------------

struct FuzzOptions
{
    uint64_t seed = 1;
    uint32_t runs = 100;
    /** Stop after this many wall-clock seconds (0 = unlimited). */
    uint32_t timeBudgetSec = 0;
    uint32_t inject = 0; ///< FuzzCase::inject mode for every case
    /** Generate oversize cases (tight fabrics) and run the
     *  diagnosed-or-correct oracle instead of the differential one. */
    bool oversize = false;
    bool checkDense = true;
    bool shrink = true;
    /** Write shrunk reproducers here ("" = don't persist). */
    std::string saveDir;
    /** Per-case progress on stderr. */
    bool progress = false;
};

struct FuzzStats
{
    uint32_t executed = 0;
    uint32_t okRuns = 0;
    uint32_t unmappable = 0;
    uint32_t mismatches = 0;
    std::vector<std::string> savedFiles;
    std::vector<std::string> details; ///< one per mismatch
};

FuzzStats fuzz(const FuzzOptions &opts);

} // namespace plast::fuzz

#endif // PLAST_FUZZ_HARNESS_HPP

/**
 * @file
 * Command-line differential fuzzer for the PIR -> fabric pipeline.
 *
 *   fuzz_pir --runs=500 --seed=1          # bounded batch
 *   fuzz_pir --time-budget=60             # CI smoke: run for 60 s
 *   fuzz_pir --replay tests/corpus/x.pir  # re-execute a reproducer
 *   fuzz_pir --inject --save-dir=out      # fault-injection self-test
 *
 * Exit status: 0 when every executed case matched (unmappable cases
 * are skipped, not failures), 1 on any mismatch, 2 on usage errors.
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "base/flags.hpp"
#include "base/logging.hpp"
#include "fuzz/harness.hpp"

using namespace plast;

int
main(int argc, char **argv)
{
    setVerbose(false);
    fuzz::FuzzOptions opts;
    opts.progress = true;
    std::string replay;
    uint64_t emitSeed = 0;
    FlagSet flags("fuzz_pir", "[options]");
    flags.num("seed", opts.seed, "base seed for the run sequence")
        .num("runs", opts.runs, "number of cases to execute")
        .num("time-budget", opts.timeBudgetSec,
             "stop after N wall-clock seconds (0 = off)")
        .str("replay", replay, "FILE", "replay one .pir reproducer and exit")
        .num("emit", emitSeed, "print the seed's case as a .pir file and exit")
        .str("save-dir", opts.saveDir, "DIR", "write shrunk reproducers to DIR")
        .num("inject", opts.inject,
             "fault self-test: 1 = reduction opcode flip, 2 = scratch/DRAM "
             "upsets (ECC off), 3 = datapath register upsets", 0u, 3u)
        .implicit("1")
        .sw("oversize", opts.oversize,
            "undersized fabrics: every compile is diagnosed or validates")
        .sw("no-dense", opts.checkDense, "skip the oracle-engine parity re-run",
            false)
        .sw("no-shrink", opts.shrink, "keep failing programs unshrunk", false)
        .sw("quiet", opts.progress, "suppress per-case progress", false);
    if (auto rc = flags.parse(argc, argv))
        return *rc;
    // A pure time budget should not stop early on run count.
    if (opts.timeBudgetSec > 0 && !flags.given("runs"))
        opts.runs = UINT32_MAX;

    if (flags.given("emit")) {
        // Corpus curation: dump a generated case to stdout so clean
        // seeds can be committed and replayed as regression tests.
        fuzz::FuzzCase c = opts.oversize
                               ? fuzz::oversizeCaseForSeed(emitSeed)
                               : fuzz::caseForSeed(emitSeed, opts.inject);
        std::ostringstream os;
        fuzz::writeSeedFile(os, c);
        std::fputs(os.str().c_str(), stdout);
        return 0;
    }

    if (!replay.empty()) {
        fuzz::DiffResult d = fuzz::replayFile(replay, opts.checkDense);
        if (d.ok()) {
            std::printf("PASS %s (%llu cycles)%s%s\n", replay.c_str(),
                        static_cast<unsigned long long>(d.cycles),
                        d.detail.empty() ? "" : " — ",
                        d.detail.c_str());
            return 0;
        }
        std::printf("FAIL %s: %s\n", replay.c_str(), d.detail.c_str());
        return 1;
    }

    fuzz::FuzzStats stats = fuzz::fuzz(opts);
    std::printf("fuzz_pir: %u executed, %u ok, %u unmappable, "
                "%u mismatches\n",
                stats.executed, stats.okRuns, stats.unmappable,
                stats.mismatches);
    for (const auto &f : stats.savedFiles)
        std::printf("  reproducer: %s\n", f.c_str());
    for (const auto &dtl : stats.details)
        std::printf("  mismatch: %s\n", dtl.c_str());
    return stats.mismatches == 0 ? 0 : 1;
}

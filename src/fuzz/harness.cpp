#include "fuzz/harness.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "arch/cfgio.hpp"
#include "base/logging.hpp"
#include "base/textio.hpp"
#include "fuzz/shrink.hpp"
#include "pir/serialize.hpp"
#include "pir/validate.hpp"
#include "runtime/runner.hpp"

namespace plast::fuzz
{

using namespace pir;

FuzzCase
caseForSeed(uint64_t caseSeed, uint32_t inject)
{
    Rng rng(caseSeed);
    FuzzCase c;
    // Fixed draw order: the architecture first, then the program.
    c.params = sampleArch(rng);
    c.prog = generateProgram(rng);
    c.inject = inject;
    return c;
}

std::function<void(FabricConfig &)>
reduceStageFault()
{
    return [](FabricConfig &cfg) {
        for (auto &pcu : cfg.pcus) {
            if (!pcu.used)
                continue;
            for (auto &st : pcu.stages) {
                if (st.kind != StageKind::kReduceStep)
                    continue;
                // The flipped op must stay a reduction combiner: the
                // simulator derives masked-lane identity values from
                // the stage op via fuOpIdentity, which rejects
                // non-associative ops.
                switch (st.op) {
                  case FuOp::kFAdd: st.op = FuOp::kFMin; break;
                  case FuOp::kIAdd: st.op = FuOp::kIMax; break;
                  case FuOp::kFMin: st.op = FuOp::kFMax; break;
                  case FuOp::kFMax: st.op = FuOp::kFMin; break;
                  case FuOp::kIMin: st.op = FuOp::kIMax; break;
                  case FuOp::kIMax: st.op = FuOp::kIMin; break;
                  default: st.op = FuOp::kFMin; break;
                }
                return; // one flipped stage is the whole fault
            }
        }
    };
}

FuzzCase
oversizeCaseForSeed(uint64_t caseSeed)
{
    // The tight scratchpads hold 4,096 or 8,192 words (16 banks of 1 or
    // 2 KB). Tiles of 96-192 vectors make a metapipelined tiled map's
    // three N-buffers overflow them while one or two buffers still fit,
    // so some cases map only by capacity spilling and some are
    // diagnosed at the nbufMin floor.
    constexpr uint32_t kTileScale = 48;
    Rng rng(caseSeed);
    FuzzCase c;
    c.params = sampleTightArch(rng);
    c.prog = generateProgram(rng, kTileScale);
    c.expectDiagnosed = true;
    return c;
}

DiffResult
runOversizeCase(const FuzzCase &c)
{
    DiffResult res;
    Runner r(c.prog, c.params);
    fillInputs(r, c.prog);
    Status st = r.tryCompile();
    if (!st.ok()) {
        // The failure must be a structured diagnosis, not a bare
        // error: compile errors carry the binding resource.
        if (st.message().empty()) {
            res.status = DiffResult::Status::kMismatch;
            res.detail = "compile failure with empty message";
            return res;
        }
        if (st.code() == StatusCode::kCompileError &&
            r.report().diag.binding.empty()) {
            res.status = DiffResult::Status::kMismatch;
            res.detail = strfmt("undiagnosed compile failure: %s",
                                st.message().c_str());
            return res;
        }
        res.detail = strfmt(
            "diagnosed (%s)",
            st.code() == StatusCode::kCompileError
                ? r.report().diag.binding.c_str()
                : statusCodeName(st.code()));
        return res;
    }
    // The design fit — possibly only via capacity spilling. A spilled
    // compile must still compute bit-identical results.
    Runner::Result out;
    Status rv = r.tryRunValidated(out);
    if (!rv.ok()) {
        res.status = DiffResult::Status::kMismatch;
        res.detail = strfmt("compiled design failed validation: %s",
                            rv.message().c_str());
        return res;
    }
    res.cycles = out.cycles;
    if (!r.report().diag.spills.empty())
        res.detail = strfmt("spilled %zu and validated",
                            r.report().diag.spills.size());
    return res;
}

DiffResult
runCase(const FuzzCase &c, bool checkDense)
{
    if (c.expectDiagnosed)
        return runOversizeCase(c);
    DiffOptions d;
    d.checkDense = checkDense;
    if (c.inject == 1)
        d.tweak = reduceStageFault();
    else if (c.inject >= 2)
        d.injectMode = c.inject;
    return diffRun(c.prog, c.params, d);
}

/** The seed file's one field walk: the .pcfg params lines, the fault
 *  mode, the oversize flag, then the .pir program. */
template <class Ar, Is<FuzzCase> C>
void
fields(Ar &ar, C &c)
{
    ar.note("# fuzz_pir reproducer (replay with: fuzz_pir --replay <file>)\n");
    paramsFields(ar, c.params);
    ar.line("inject", c.inject);
    ar.line("diagnosed", c.expectDiagnosed);
    programFields(ar, c.prog);
}

void
writeSeedFile(std::ostream &os, const FuzzCase &c)
{
    TextWriter ar(os);
    fields(ar, c);
}

bool
readSeedFile(std::istream &is, FuzzCase &out, std::string *err)
{
    TextReader ar(is);
    FuzzCase c;
    fields(ar, c);
    if (!ar.ok()) {
        if (err)
            *err = ar.error();
        return false;
    }
    out = std::move(c);
    return true;
}

DiffResult
replayFile(const std::string &path, bool checkDense)
{
    DiffResult res;
    std::ifstream is(path);
    if (!is) {
        res.status = DiffResult::Status::kInvalid;
        res.detail = "cannot open " + path;
        return res;
    }
    FuzzCase c;
    std::string err;
    if (!readSeedFile(is, c, &err)) {
        res.status = DiffResult::Status::kInvalid;
        res.detail = path + ": " + err;
        return res;
    }
    return runCase(c, checkDense);
}

FuzzStats
fuzz(const FuzzOptions &opts)
{
    FuzzStats stats;
    Rng seedRng(opts.seed);
    const auto t0 = std::chrono::steady_clock::now();
    auto expired = [&] {
        if (opts.timeBudgetSec == 0)
            return false;
        auto dt = std::chrono::steady_clock::now() - t0;
        return std::chrono::duration_cast<std::chrono::seconds>(dt)
                   .count() >= static_cast<int64_t>(opts.timeBudgetSec);
    };

    for (uint32_t run = 0; run < opts.runs && !expired(); ++run) {
        const uint64_t caseSeed = seedRng.next();
        FuzzCase c = opts.oversize
                         ? oversizeCaseForSeed(caseSeed)
                         : caseForSeed(caseSeed, opts.inject);
        DiffResult d = runCase(c, opts.checkDense);
        ++stats.executed;
        if (opts.progress)
            std::fprintf(stderr,
                         "[fuzz] run %u seed 0x%016llx: %s%s%s\n", run,
                         static_cast<unsigned long long>(caseSeed),
                         d.ok() ? "ok"
                         : d.status == DiffResult::Status::kUnmappable
                             ? "unmappable"
                             : "MISMATCH",
                         d.detail.empty() ? "" : " — ",
                         d.detail.c_str());
        switch (d.status) {
          case DiffResult::Status::kOk:
            ++stats.okRuns;
            continue;
          case DiffResult::Status::kUnmappable:
            ++stats.unmappable;
            continue;
          case DiffResult::Status::kInvalid:
            // Generator bug: surface loudly but keep fuzzing.
            warn("seed 0x%016llx generated invalid program: %s",
                 static_cast<unsigned long long>(caseSeed),
                 d.detail.c_str());
            ++stats.mismatches;
            stats.details.push_back(d.detail);
            continue;
          case DiffResult::Status::kMismatch:
            break;
        }

        ++stats.mismatches;
        stats.details.push_back(d.detail);
        FuzzCase minimal = c;
        // The note is the saved program's own mismatch: the shrinker
        // returns the last candidate that failed.
        std::string detail = d.detail;
        if (opts.shrink) {
            auto stillFails = [&](const Program &cand) {
                FuzzCase probe{cand, c.params, c.inject,
                               c.expectDiagnosed};
                DiffResult r = runCase(probe, opts.checkDense);
                if (r.mismatch())
                    detail = r.detail;
                return r.mismatch();
            };
            ShrinkResult sr = shrinkProgram(c.prog, stillFails);
            minimal.prog = sr.prog;
            if (opts.progress)
                std::fprintf(stderr,
                             "[fuzz] shrunk to %zu nodes in %d steps\n",
                             minimal.prog.nodes.size(), sr.accepted);
        }
        if (!opts.saveDir.empty()) {
            std::string path =
                opts.saveDir +
                strfmt("/seed_%016llx.pir",
                       static_cast<unsigned long long>(caseSeed));
            std::ofstream os(path);
            if (os) {
                os << "# detail: " << detail << '\n';
                writeSeedFile(os, minimal);
                stats.savedFiles.push_back(path);
            } else {
                warn("cannot write reproducer %s", path.c_str());
            }
        }
    }
    return stats;
}

} // namespace plast::fuzz

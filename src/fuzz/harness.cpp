#include "fuzz/harness.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

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

void
writeSeedFile(std::ostream &os, const FuzzCase &c)
{
    const ArchParams &p = c.params;
    os << "# fuzz_pir reproducer (replay with: fuzz_pir --replay <file>)\n";
    os << "arch " << p.gridCols << ' ' << p.gridRows << ' '
       << p.pcu.stages << ' ' << p.pcu.fifoDepth << ' '
       << p.pmu.bankKilobytes << ' ' << p.dram.channels << ' '
       << p.dram.queueDepth << ' ' << p.vectorTracks << ' '
       << p.scalarTracks << ' ' << p.numAgs << ' '
       << p.coalescerMaxOutstanding << '\n';
    os << "inject " << c.inject << '\n';
    if (c.expectDiagnosed)
        os << "expect diagnosed\n";
    writeProgram(os, c.prog);
}

bool
readSeedFile(std::istream &is, FuzzCase &out, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    // The header is line-oriented; '#' lines are comments.
    auto nextLine = [&](std::string &out) -> bool {
        std::string line;
        while (std::getline(is, line)) {
            size_t p = line.find_first_not_of(" \t\r");
            if (p == std::string::npos || line[p] == '#')
                continue;
            out = line;
            return true;
        }
        return false;
    };
    std::string line, tok;
    if (!nextLine(line))
        return fail("empty seed file");
    std::istringstream arch(line);
    ArchParams p = ArchParams::plasticineFinal();
    // Optional 11th field: the outstanding-burst budget. Seed files
    // written before it existed replay at the default of 64.
    uint32_t *fields[] = {
        &p.gridCols, &p.gridRows, &p.pcu.stages, &p.pcu.fifoDepth,
        &p.pmu.bankKilobytes, &p.dram.channels, &p.dram.queueDepth,
        &p.vectorTracks, &p.scalarTracks, &p.numAgs,
        &p.coalescerMaxOutstanding};
    size_t n = 0;
    if (!(arch >> tok) || tok != "arch")
        return fail("seed file must start with an 'arch' line");
    for (; arch >> tok; ++n)
        if (n == std::size(fields) || !parseNumber(tok, *fields[n]))
            return fail("bad 'arch' field '" + tok + "'");
    if (n < std::size(fields) - 1)
        return fail("seed file must start with an 'arch' line");
    p.pmu.fifoDepth = p.pcu.fifoDepth;
    uint32_t inj = 0;
    if (!nextLine(line))
        return fail("expected 'inject' line after 'arch'");
    std::istringstream injs(line);
    if (!(injs >> tok) || tok != "inject" || !(injs >> tok) ||
        !parseNumber(tok, inj))
        return fail("expected 'inject' line after 'arch'");
    out.params = p;
    out.inject = inj;
    // Optional 'expect diagnosed' line (oversize reproducers). Peek
    // manually so the program header line is left for readProgram.
    out.expectDiagnosed = false;
    std::streampos pos = is.tellg();
    std::string probe;
    while (std::getline(is, probe)) {
        size_t pch = probe.find_first_not_of(" \t\r");
        if (pch == std::string::npos || probe[pch] == '#') {
            pos = is.tellg();
            continue;
        }
        std::istringstream ex(probe);
        std::string what;
        if ((ex >> tok) && tok == "expect") {
            if (!(ex >> what) || what != "diagnosed")
                return fail("unknown 'expect' directive");
            out.expectDiagnosed = true;
        } else {
            is.clear();
            is.seekg(pos);
        }
        break;
    }
    return readProgram(is, out.prog, err);
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
        if (opts.shrink) {
            auto stillFails = [&](const Program &cand) {
                FuzzCase probe{cand, c.params, c.inject,
                               c.expectDiagnosed};
                return runCase(probe, opts.checkDense).mismatch();
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
                os << "# detail: " << d.detail << '\n';
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

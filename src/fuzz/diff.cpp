#include "fuzz/diff.hpp"

#include <memory>
#include <vector>

#include "base/logging.hpp"
#include "base/rng.hpp"
#include "compiler/mapper.hpp"
#include "pir/eval.hpp"
#include "pir/validate.hpp"
#include "resilience/fault.hpp"
#include "runtime/runner.hpp"
#include "sim/fabric.hpp"

namespace plast::fuzz
{

using namespace pir;

void
fillInputs(Runner &r, const Program &prog)
{
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        const MemDecl &md = prog.mems[m];
        if (md.kind != MemKind::kDram)
            continue;
        auto &buf = r.dram(static_cast<MemId>(m));
        // Seed from the MemId so renaming-preserving shrinks keep the
        // same data but distinct buffers get distinct streams.
        Rng rng(0x5eed0000u + static_cast<uint64_t>(m) * 0x9e37u);
        char c = md.name.empty() ? 'o' : md.name[0];
        for (auto &w : buf) {
            if (c == 'f')
                w = floatToWord(rng.nextFloat(-2.0f, 2.0f));
            else if (c == 'i')
                w = intToWord(
                    static_cast<int32_t>(rng.nextBounded(1 << 15)));
            else
                w = 0;
        }
    }
}

namespace
{

/** First difference between two word sequences, or empty string. */
std::string
firstDiff(const char *what, const std::vector<Word> &want,
          const std::vector<Word> &got)
{
    if (want.size() != got.size())
        return strfmt("%s: size %zu vs %zu", what, want.size(),
                      got.size());
    for (size_t i = 0; i < want.size(); ++i) {
        if (want[i] != got[i])
            return strfmt("%s[%zu]: 0x%08x (%f) vs 0x%08x (%f)", what,
                          i, want[i], wordToFloat(want[i]), got[i],
                          wordToFloat(got[i]));
    }
    return {};
}

/** What one execution produced: argOut streams and DRAM images (empty
 *  for SRAM ids). */
struct Outputs
{
    std::vector<std::vector<Word>> argOuts;
    std::vector<std::vector<Word>> dram;
};

Outputs
outputsOf(const Evaluator &ref, const Program &prog)
{
    Outputs o;
    for (uint32_t s = 0; s < prog.numArgOuts; ++s)
        o.argOuts.push_back(ref.argOuts(static_cast<int32_t>(s)));
    o.dram.resize(prog.mems.size());
    for (size_t m = 0; m < prog.mems.size(); ++m)
        if (prog.mems[m].kind == MemKind::kDram)
            o.dram[m] = ref.dramBuf(static_cast<MemId>(m));
    return o;
}

Outputs
outputsOf(const Runner &r, const Runner::Result &res, const Program &prog)
{
    Outputs o;
    for (uint32_t s = 0; s < prog.numArgOuts; ++s)
        o.argOuts.emplace_back(res.argOuts[s].begin(), res.argOuts[s].end());
    o.dram.resize(prog.mems.size());
    for (size_t m = 0; m < prog.mems.size(); ++m)
        if (prog.mems[m].kind == MemKind::kDram)
            o.dram[m] = r.readDram(static_cast<MemId>(m));
    return o;
}

/** First difference between two executions' outputs, prefixed with
 *  `legs` ("ref vs fabric"); empty when they agree. */
std::string
diffOutputs(const char *legs, const Program &prog, const Outputs &want,
            const Outputs &got)
{
    for (uint32_t s = 0; s < prog.numArgOuts; ++s) {
        auto d = firstDiff(strfmt("argOut[%u]", s).c_str(),
                           want.argOuts[s], got.argOuts[s]);
        if (!d.empty())
            return strfmt("%s %s", legs, d.c_str());
    }
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind != MemKind::kDram)
            continue;
        auto d = firstDiff(
            strfmt("dram '%s'", prog.mems[m].name.c_str()).c_str(),
            want.dram[m], got.dram[m]);
        if (!d.empty())
            return strfmt("%s %s", legs, d.c_str());
    }
    return {};
}

/** Per-unit cycle accounting: every evaluated cycle classified, every
 *  slept cycle attributed, and nothing exceeds the fabric clock. */
std::string
checkLedger(const Fabric &fab)
{
    const Cycles total = fab.now();
    for (const SimUnit *u : fab.units()) {
        const std::string label = u->ref().describe() + " ledger";
        const CycleAcct &a = u->acct();
        uint64_t by_sum = 0, slept_sum = 0;
        for (size_t c = 0; c < kNumCycleClasses; ++c) {
            by_sum += a.by[c];
            slept_sum += a.sleptBy[c];
        }
        if (by_sum != a.stepped)
            return strfmt("%s: classified %llu != stepped %llu",
                          label.c_str(),
                          static_cast<unsigned long long>(by_sum),
                          static_cast<unsigned long long>(a.stepped));
        if (slept_sum != a.slept)
            return strfmt("%s: attributed-sleep %llu != slept %llu",
                          label.c_str(),
                          static_cast<unsigned long long>(slept_sum),
                          static_cast<unsigned long long>(a.slept));
        if (a.stepped + a.slept > total)
            return strfmt(
                "%s: stepped %llu + slept %llu exceeds clock %llu",
                label.c_str(),
                static_cast<unsigned long long>(a.stepped),
                static_cast<unsigned long long>(a.slept),
                static_cast<unsigned long long>(total));
    }
    return {};
}

} // namespace

DiffResult
diffRun(const Program &prog, const ArchParams &params,
        const DiffOptions &opts)
{
    DiffResult out;

    auto errs = validateProgram(prog, params.pcu.lanes);
    if (!errs.empty()) {
        out.status = DiffResult::Status::kInvalid;
        out.detail = errs.front();
        return out;
    }

    // Compile once; every leg adopts the result. Capacity overruns are
    // a legal outcome of random (program, arch) pairs, not a finding
    // (Runner::run would fatal on them).
    compiler::MapResult probe = compiler::compileProgram(prog, params);
    if (!probe.report.ok) {
        out.status = DiffResult::Status::kUnmappable;
        out.detail = probe.report.error;
        return out;
    }
    if (opts.tweak)
        opts.tweak(probe.fabric);
    auto compiled =
        std::make_shared<const compiler::MapResult>(std::move(probe));

    // Fault-library injection: one plan, targeted at the mapped config;
    // every scheduler mode gets a fresh injector over the same plan so
    // the upsets land on identical cycles in both modes.
    resilience::FaultPlan plan;
    if (opts.injectMode >= 2) {
        // Fuzz programs finish in a few hundred cycles, so the plan
        // horizon is tight and the rate high — otherwise most upsets
        // would land after completion and every case would be a no-op.
        plan = resilience::FaultPlan::random(
            0x5eedfa17ull + opts.injectMode,
            /*eventsPerMillion=*/20000.0,
            /*horizon=*/300, compiled->fabric,
            opts.injectMode == 2 ? resilience::FaultMix::kProtected
                                 : resilience::FaultMix::kDatapath,
            /*includeHard=*/false);
    }
    std::vector<std::unique_ptr<resilience::FaultInjector>> injectors;

    auto runMode = [&](SimOptions::Mode mode,
                       SimMode simMode = SimMode::kInterp) {
        SimOptions so;
        so.mode = mode;
        so.simMode = simMode;
        auto r = std::make_unique<Runner>(prog, params, so);
        r->adoptCompiled(compiled);
        if (opts.injectMode >= 2) {
            injectors.push_back(
                std::make_unique<resilience::FaultInjector>(
                    plan, params.dram.ecc));
            r->setFaultInjector(injectors.back().get());
        }
        fillInputs(*r, prog);
        return r;
    };

    auto activity = runMode(SimOptions::Mode::kActivity);
    Evaluator ref = activity->runReference();
    Runner::Result ares = activity->run(opts.maxCycles);
    out.cycles = ares.cycles;
    const Outputs aout = outputsOf(*activity, ares, prog);
    auto mismatch = [&](std::string detail) {
        out.status = DiffResult::Status::kMismatch;
        out.detail = std::move(detail);
        return out;
    };

    // 1. Reference vs fabric: argOut streams and DRAM images; then the
    //    cycle-ledger invariant on the activity-mode fabric.
    if (auto d = diffOutputs("ref vs fabric", prog, outputsOf(ref, prog),
                             aout);
        !d.empty())
        return mismatch(d);
    if (auto e = checkLedger(*activity->fabric()); !e.empty())
        return mismatch(e);

    // 2. Re-runs must be bit- and cycle-exact against the activity-mode
    //    interpreter run, ledgers included.
    auto parity = [&](const char *what, const char *base, const char *leg,
                      SimOptions::Mode mode, SimMode simMode) {
        auto r = runMode(mode, simMode);
        Runner::Result res = r->run(opts.maxCycles);
        if (res.cycles != ares.cycles)
            return strfmt("%s parity: %s %llu cycles vs %s %llu", what, leg,
                          static_cast<unsigned long long>(res.cycles), base,
                          static_cast<unsigned long long>(ares.cycles));
        std::string legs = strfmt("%s vs %s", base, leg);
        if (auto d = diffOutputs(legs.c_str(), prog, aout,
                                 outputsOf(*r, res, prog));
            !d.empty())
            return d;
        if (auto e = checkLedger(*r->fabric()); !e.empty())
            return strfmt("%s %s", leg, e.c_str());
        return std::string();
    };
    // Scheduler mode: dense evaluation of every unit every cycle.
    if (opts.checkDense) {
        if (auto d = parity("scheduler", "activity", "dense",
                            SimOptions::Mode::kDense, SimMode::kInterp);
            !d.empty())
            return mismatch(d);
    }
    // Datapath: the specialized execution plans.
    if (auto d = parity("datapath", "interp", "specialized",
                        SimOptions::Mode::kActivity, SimMode::kSpecialized);
        !d.empty())
        return mismatch(d);
    return out;
}

} // namespace plast::fuzz

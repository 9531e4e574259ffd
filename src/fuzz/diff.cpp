#include "fuzz/diff.hpp"

#include <memory>
#include <vector>

#include "base/logging.hpp"
#include "base/rng.hpp"
#include "compiler/mapper.hpp"
#include "pir/eval.hpp"
#include "pir/validate.hpp"
#include "resilience/fault.hpp"
#include "runtime/record.hpp"
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

/** Per-unit cycle accounting: each unit's settled ledger classifies
 *  every cycle of the fabric clock exactly once. */
std::string
checkLedger(const Fabric &fab)
{
    const Cycles total = fab.now();
    for (const SimUnit *u : fab.units()) {
        uint64_t sum = 0;
        for (uint64_t v : u->ledger(total).by)
            sum += v;
        if (sum != total)
            return strfmt("%s ledger: classified %llu != clock %llu",
                          u->ref().describe().c_str(),
                          static_cast<unsigned long long>(sum),
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
    // each engine gets a fresh injector over the same plan so the
    // upsets land on identical cycles under both.
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

    // One leg: the shared compile under one engine, run to completion
    // or to whatever stopped it, DRAM read back.
    struct Leg
    {
        std::unique_ptr<resilience::FaultInjector> injector;
        std::unique_ptr<Runner> runner;
        Status status;
        Runner::Result rec;
    };
    auto runLeg = [&](Engine engine) {
        SimOptions so;
        so.engine = engine;
        Leg leg;
        leg.runner = std::make_unique<Runner>(prog, params, so);
        leg.runner->adoptCompiled(compiled);
        if (opts.injectMode >= 2) {
            leg.injector = std::make_unique<resilience::FaultInjector>(
                plan, params.dram.ecc);
            leg.runner->setFaultInjector(leg.injector.get());
        }
        fillInputs(*leg.runner, prog);
        leg.status = leg.runner->tryRun(leg.rec, opts.maxCycles);
        leg.runner->readBack(leg.rec);
        return leg;
    };
    auto mismatch = [&](std::string detail) {
        out.status = DiffResult::Status::kMismatch;
        out.detail = std::move(detail);
        return out;
    };

    // 1. Reference vs fabric: the production run must complete with
    //    the evaluator's argOut streams and DRAM images; then the
    //    cycle-ledger invariant on its fabric.
    Leg production = runLeg(Engine::kProduction);
    out.cycles = production.rec.cycles;
    if (!production.status.ok())
        return mismatch("ref vs fabric: fabric stopped: " +
                        production.status.message());
    if (Status st = checkOutputs(
            prog, recordOf(production.runner->runReference(), prog),
            production.rec, "ref vs fabric");
        !st.ok())
        return mismatch(st.message());
    if (auto e = checkLedger(*production.runner->fabric()); !e.empty())
        return mismatch(e);

    // 2. The oracle stops as that run did and simulates the same
    //    machine: outputs, cycles, counters and cycle ledgers
    //    (checkWholeRun).
    if (!opts.checkDense)
        return out;
    Leg oracle = runLeg(Engine::kOracle);
    const char *legs = "engine parity: oracle vs production";
    if (oracle.status.code() != production.status.code())
        return mismatch(strfmt("%s: stopped as %s vs %s", legs,
                               statusCodeName(oracle.status.code()),
                               statusCodeName(production.status.code())));
    if (Status st = checkWholeRun(prog, oracle.rec, production.rec, legs);
        !st.ok())
        return mismatch(st.message());
    if (auto e = checkLedger(*oracle.runner->fabric()); !e.empty())
        return mismatch("oracle " + e);
    return out;
}

} // namespace plast::fuzz

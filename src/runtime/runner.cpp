#include "runtime/runner.hpp"

#include "arch/cfgio.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "pir/serialize.hpp"
#include "pir/validate.hpp"
#include "runtime/bottleneck.hpp"

namespace plast
{

using namespace pir;

Runner::Runner(Program prog, ArchParams params, SimOptions simOpts)
    : prog_(std::move(prog)), params_(params), simOpts_(simOpts),
      profTid_(HostProfiler::currentTid()),
      profSinceUs_(HostProfiler::instance().nowUs())
{
}

void
Runner::adoptCompiled(std::shared_ptr<const compiler::MapResult> map)
{
    panic_if(compiled_, "adoptCompiled after compilation");
    panic_if(!map || !map->report.ok,
             "adoptCompiled with a null or failed compile result");
    shared_ = std::move(map);
    compiled_ = true;
}

void
Runner::setUnitMask(compiler::UnitMask mask)
{
    panic_if(compiled_, "setUnitMask after compilation");
    mask_ = std::move(mask);
}

void
Runner::setFaultInjector(resilience::FaultInjector *inj)
{
    injector_ = inj;
    if (fabric_)
        fabric_->armFaults(inj);
}

void
Runner::setCancelToken(const CancelToken *tok)
{
    cancel_ = tok;
    if (fabric_)
        fabric_->setCancelToken(tok);
}

std::vector<Word> &
Runner::dram(MemId id)
{
    fatal_if(prog_.mems.at(id).kind != MemKind::kDram,
             "Runner::dram on non-DRAM memory '%s'",
             prog_.mems[id].name.c_str());
    auto &buf = host_[id];
    buf.resize(prog_.mems[id].sizeWords, 0);
    return buf;
}

Status
Runner::tryCompile()
{
    if (compiled_)
        return Status();
    ScopedSpan span("host.compile");
    // Structural validation first: program shapes the compiler cannot
    // map get a diagnosis naming the construct, not a mapper error.
    std::vector<std::string> problems =
        validateProgram(prog_, params_.pcu.lanes);
    if (!problems.empty()) {
        return Status(StatusCode::kValidationError,
                      strfmt("validation of '%s' failed: %s",
                             prog_.name.c_str(), problems[0].c_str()));
    }
    compiler::MapResult mr =
        compiler::compileProgram(prog_, params_, mask_);
    if (!mr.report.ok) {
        map_ = std::move(mr);
        return Status(StatusCode::kCompileError,
                      strfmt("compilation of '%s' failed: %s\n%s",
                             prog_.name.c_str(),
                             map_.report.error.c_str(),
                             map_.report.diag.summary().c_str()));
    }
    // Freeze: the compile result is immutable from here on, so the
    // serve config cache can hand it to other runners without copying.
    shared_ = std::make_shared<const compiler::MapResult>(std::move(mr));
    compiled_ = true;
    if (verbose())
        inform("%s: %s", prog_.name.c_str(),
               shared_->report.summary(params_).c_str());
    return Status();
}

void
Runner::buildFabric()
{
    ScopedSpan span("host.build-fabric");
    const compiler::MapResult &map = mapResult();
    fabric_ = std::make_unique<Fabric>(map.fabric, simOpts_);
    if (injector_)
        fabric_->armFaults(injector_);
    if (cancel_)
        fabric_->setCancelToken(cancel_);
    loadDram(*fabric_, prog_, map, host_);
}

Runner::Result
Runner::run(Cycles maxCycles)
{
    Result res;
    Status st = tryRun(res, maxCycles);
    if (!st.ok()) {
        std::string why = st.message();
        if (st.code() == StatusCode::kDeadlock)
            why += "\n" + analyzeDeadlock(*fabric_).render();
        fatal("%s", why.c_str());
    }
    return res;
}

Status
Runner::tryRun(Result &out, Cycles maxCycles)
{
    Status st = tryCompile();
    if (!st.ok())
        return st;
    buildFabric();
    RunResult rr = fabric_->runChecked(maxCycles);
    out = captureRun(*fabric_, prog_, rr.cycles);
    return rr.status;
}

void
Runner::readBack(Result &out) const
{
    if (fabric_)
        readBackDram(*fabric_, prog_, mapResult(), out);
    else
        out.dram.assign(prog_.mems.size(), {});
}

Status
Runner::tryRunValidated(Result &out, Cycles maxCycles)
{
    Status st = tryRun(out, maxCycles);
    readBack(out);
    return st.ok() ? checkReference(out) : st;
}

std::vector<Word>
Runner::readDram(MemId id) const
{
    panic_if(!fabric_, "readDram before run()");
    std::vector<Word> out(prog_.mems.at(id).sizeWords);
    Addr base = mapResult().dramBase[id];
    for (size_t w = 0; w < out.size(); ++w)
        out[w] = fabric_->dram().readWord(base + w * 4);
    return out;
}

Evaluator
Runner::runReference() const
{
    ScopedSpan span("host.reference");
    Evaluator ev(prog_, params_.pcu.lanes);
    for (const auto &[mid, data] : host_) {
        auto &buf = ev.dramBuf(mid);
        std::copy(data.begin(), data.end(), buf.begin());
    }
    ev.run();
    return ev;
}

const Evaluator::Counts &
Runner::referenceCounts()
{
    if (!haveCounts_) {
        Evaluator ev = runReference();
        counts_ = ev.counts();
        haveCounts_ = true;
    }
    return counts_;
}

Status
Runner::checkReference(const Result &res)
{
    Evaluator ev = runReference();
    counts_ = ev.counts();
    haveCounts_ = true;
    return checkOutputs(prog_, recordOf(ev, prog_), res,
                        prog_.name + " ref vs fabric");
}

RunManifest
Runner::buildManifest(const Result &res, Status st) const
{
    RunManifest m;
    m.program = prog_.name;
    m.pirHash = fnv1a64(pir::programToText(prog_));
    m.archHash = fnv1a64(archParamsText(params_));
    m.schedMode = schedulerName(simOpts_.engine);
    m.simMode = datapathName(simOpts_.engine);
    m.arch = params_.describe();
    m.compiled = compiled_;
    if (compiled_)
        m.configHash = fnv1a64(configToText(mapResult().fabric));
    const compiler::CompileDiagnostics &d = mapResult().report.diag;
    m.binding = d.binding;
    m.placementAttempts = d.placementAttempts;
    m.routeRounds = d.routeRounds;
    m.routedHops = d.routedHops;
    m.spills = static_cast<uint32_t>(d.spills.size());
    m.outcome = statusCodeName(st.code());
    if (!st.ok())
        m.detail = st.message();
    m.cycles = res.cycles;
    // Only this runner's own phases: the constructing thread's spans
    // since construction. Under the serve worker pool every runner
    // shares the process profiler; the unfiltered totals would blend
    // all workers' compiles and runs into every job's manifest.
    m.timingsUs =
        HostProfiler::instance().totalsUs(profTid_, profSinceUs_);
    m.metrics = res.stats.all();
    return m;
}

void
Runner::writeManifest(std::ostream &os, const Result &res, Status st) const
{
    buildManifest(res, st).writeJson(os);
}

Runner::Result
Runner::runValidated(Cycles maxCycles)
{
    Result res = run(maxCycles);
    readBack(res);
    Status st = checkReference(res);
    fatal_if(!st.ok(), "%s", st.message().c_str());
    return res;
}

} // namespace plast

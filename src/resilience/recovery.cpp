#include "resilience/recovery.hpp"

#include <algorithm>
#include <deque>

#include "base/logging.hpp"

namespace plast::resilience
{

const char *
runClassName(RunClass c)
{
    switch (c) {
      case RunClass::kClean:
        return "clean";
      case RunClass::kMasked:
        return "masked";
      case RunClass::kCorrected:
        return "corrected";
      case RunClass::kRecovered:
        return "recovered";
      case RunClass::kDetectedUnrecoverable:
        return "detected-unrecoverable";
      case RunClass::kSilentCorruption:
        return "silent-corruption";
      case RunClass::kCompileError:
        return "compile-error";
    }
    return "?";
}

namespace
{

/** Snapshots kept for rollback. */
constexpr size_t kKeepCheckpoints = 4;
/** Recovery attempts (rollbacks + restarts + remaps) before giving up
 *  with detected-unrecoverable. */
constexpr uint32_t kMaxRecoveries = 4;

/** A hang when some busy unit has made no progress for more than
 *  `window` cycles. (The fabric reports a deadlock only once no planned
 *  fault event that could still change its state is left.) */
Status
checkStalls(const Fabric &fab, Cycles window)
{
    for (const SimUnit *u : fab.units()) {
        const Cycles idle = fab.now() - u->lastProgressAt();
        if (u->busy() && idle > window)
            return Status(StatusCode::kDeadlock,
                          strfmt("stall: unit %s made no progress for "
                                 "%llu cycles (cycle %llu)",
                                 u->name().c_str(),
                                 static_cast<unsigned long long>(idle),
                                 static_cast<unsigned long long>(
                                     fab.now())));
    }
    return Status();
}

} // namespace

ResilientRunner::ResilientRunner(
    pir::Program prog, ArchParams params,
    std::shared_ptr<const compiler::MapResult> compiled, Cycles maxCycles)
    : prog_(std::move(prog)), params_(params),
      compiled_(std::move(compiled)), maxCycles_(maxCycles)
{
    panic_if(!compiled_, "ResilientRunner needs a compiled program");
}

void
ResilientRunner::setInputs(std::map<pir::MemId, std::vector<Word>> bufs)
{
    inputs_ = std::move(bufs);
}

Status
ResilientRunner::runGolden()
{
    Runner runner(prog_, params_);
    runner.adoptCompiled(compiled_);
    runner.setHostBuffers(inputs_);
    if (cancel_)
        runner.setCancelToken(cancel_);
    Runner::Result res;
    Status st = runner.tryRun(res);
    if (!st.ok())
        return st;
    runner.readBack(res);
    golden_ = std::move(res);
    haveGolden_ = true;
    return st;
}

Cycles
ResilientRunner::attemptCap() const
{
    return maxCycles_ ? maxCycles_
                      : std::max<Cycles>(1'000'000, 50 * golden_.cycles);
}

void
ResilientRunner::harvestCounters(ResilienceReport &rep,
                                 const Runner &runner,
                                 const FaultInjector &inj) const
{
    rep.eventsFired = inj.firedCount();
    rep.firedUnprotected = inj.firedUnprotected();
    const Fabric *fab = runner.fabric();
    if (!fab)
        return;
    for (uint32_t i = 0; i < fab->config().pmus.size(); ++i) {
        if (const PmuSim *pmu = fab->pmuPtr(i))
            rep.eccCorrected += pmu->scratch().eccStats().corrected;
    }
    rep.dramCorrected += fab->mem().stats().dramCorrected;
    rep.dramRetries += fab->mem().stats().dramRetries;
}

ResilienceReport
ResilientRunner::run(const FaultPlan &plan)
{
    ResilienceReport rep;
    rep.eventsPlanned = static_cast<uint32_t>(plan.events.size());

    if (!haveGolden_) {
        Status st = runGolden();
        if (!st.ok()) {
            rep.cls = RunClass::kDetectedUnrecoverable;
            rep.finalStatus = st;
            rep.detail = "golden run failed: " + st.message();
            last_ = Runner::Result{};
            last_.dram.resize(prog_.mems.size()); // no attempt ran
            return rep;
        }
    }

    FaultInjector injector(plan, params_.dram.ecc);
    auto makeRunner = [&] {
        auto r = std::make_unique<Runner>(prog_, params_);
        r->setHostBuffers(inputs_);
        r->setFaultInjector(&injector);
        if (cancel_)
            r->setCancelToken(cancel_);
        return r;
    };

    std::unique_ptr<Runner> runner = makeRunner();
    runner->adoptCompiled(compiled_);
    const Cycles cap = attemptCap();
    // Both windows scale with the fault-free horizon: an interval near
    // it would never build a ring, and a stall window shorter than a
    // legitimate memory-bound wait would flag healthy runs.
    const Cycles every = std::max<Cycles>(1'000, golden_.cycles / 5);
    const Cycles stallWindow = std::max<Cycles>(20'000, 2 * golden_.cycles);
    std::deque<FabricCheckpoint> ring;
    Cycles nextCheckpoint = 0;
    Cycles nextStallCheck = 0;
    Runner::Result res;

    // Run the fabric to completion, a typed stop or the attempt cap,
    // stopping at each checkpoint cycle to snapshot it (before that
    // cycle is stepped) and every eighth of the stall window to check
    // for stalls (after the cycle before it is).
    auto advance = [&]() {
        Fabric &fab = *runner->mutableFabric();
        for (;;) {
            if (fab.now() >= nextCheckpoint) {
                ring.push_back(fab.saveCheckpoint());
                if (ring.size() > kKeepCheckpoints)
                    ring.pop_front();
                nextCheckpoint = fab.now() + every;
            }
            RunResult rr = fab.runChecked(
                std::min({nextCheckpoint, nextStallCheck, cap}));
            if (rr.status.code() != StatusCode::kMaxCycles)
                return rr;
            if (fab.now() >= nextStallCheck) {
                if (Status st = checkStalls(fab, stallWindow); !st.ok())
                    return RunResult{st, fab.now()};
                nextStallCheck = fab.now() + stallWindow / 8;
            }
            if (fab.now() >= cap)
                return rr;
        }
    };
    // A fresh attempt: build the fabric, stopped at cycle 0, and run it
    // (the first stall check follows the first step).
    auto attempt = [&]() {
        ring.clear();
        nextCheckpoint = 0;
        nextStallCheck = 1;
        Status st = runner->tryRun(res, 0);
        if (st.code() != StatusCode::kMaxCycles)
            return st; // cancelled before the first cycle
        RunResult rr = advance();
        res = captureRun(*runner->fabric(), prog_, rr.cycles);
        return rr.status;
    };

    Status st = attempt();

    uint32_t attempts = 0;
    while (!st.ok()) {
        if (st.code() == StatusCode::kCancelled ||
            st.code() == StatusCode::kDeadlineExceeded) {
            // A cancel/deadline trip is the caller reclaiming the
            // worker, not a fault — recovery must not spend more time.
            rep.detail += "aborted by caller: " + st.message() + "\n";
            break;
        }
        if (++attempts > kMaxRecoveries) {
            rep.detail += strfmt("recovery budget (%u) exhausted\n",
                                 kMaxRecoveries);
            break;
        }

        // A deadlock, a stall, or kMaxCycles (advance() returns it only
        // at the attempt cap).
        const bool hang = st.code() == StatusCode::kDeadlock ||
                          st.code() == StatusCode::kMaxCycles;
        auto stuck = injector.firedStuck();

        if (hang && !stuck.empty()) {
            // A frozen unit starves its consumers; no amount of replay
            // on the same placement helps. Re-place-and-route with the
            // faulted sites masked and restart with pristine inputs
            // (checkpoints are bound to the old placement).
            compiler::UnitMask mask;
            for (const auto &ev : stuck) {
                if (ev.kind == FaultKind::kPcuStuck)
                    mask.pcus.push_back(ev.unit);
                else
                    mask.pmus.push_back(ev.unit);
            }
            rep.detail +=
                strfmt("%s; re-mapping around %zu hard-faulted unit(s)\n",
                       st.message().c_str(), stuck.size());
            ++rep.remaps;
            runner = makeRunner();
            runner->setUnitMask(std::move(mask));
            st = runner->tryCompile();
            if (!st.ok()) {
                rep.detail += "degraded re-mapping infeasible: " +
                              st.message() + "\n";
                break;
            }
            st = attempt();
            continue;
        }

        if (st.code() == StatusCode::kUncorrectable ||
            st.code() == StatusCode::kAddressFault || hang) {
            Fabric *fab = runner->mutableFabric();
            // Roll back to the newest checkpoint that predates the
            // damage. For an ECC latch that is the recorded corruption
            // cycle; for a hang blamed on transient token loss, or an
            // access a corrupted index sent out of range, it is the
            // earliest fired event.
            Cycles bad = st.code() == StatusCode::kUncorrectable
                             ? fab->eccCorruptedAt()
                             : injector.earliestFiredCycle();
            // Later snapshots hold the damage; after a rollback they
            // belong to the abandoned timeline.
            while (!ring.empty() && ring.back().cycle > bad)
                ring.pop_back();
            if (!ring.empty()) {
                const FabricCheckpoint &cp = ring.back();
                Status rst = fab->restoreCheckpoint(cp);
                if (!rst.ok()) {
                    rep.detail +=
                        "checkpoint restore failed: " + rst.message() +
                        "\n";
                    st = rst;
                    break;
                }
                rep.detail += strfmt(
                    "%s; rolled back to checkpoint at cycle %llu\n",
                    st.message().c_str(),
                    static_cast<unsigned long long>(cp.cycle));
                ++rep.rollbacks;
                // The restored snapshot stays the ring's newest.
                nextCheckpoint = cp.cycle + every;
                nextStallCheck = cp.cycle + 1;
                RunResult rr = advance();
                st = rr.status;
                if (st.ok())
                    res = captureRun(*fab, prog_, rr.cycles);
                continue;
            }
            // No usable checkpoint: restart from cycle 0 (rebuilds the
            // fabric and restages the DRAM image; one-shot events make
            // the re-execution fault-free).
            rep.detail += st.message() + "; no checkpoint at or before "
                                         "the corruption point — "
                                         "restarting\n";
            ++rep.restarts;
            st = attempt();
            continue;
        }

        // Anything else (compile regressions, internal errors) is not
        // recoverable by replay.
        rep.detail += "unrecoverable status: " + st.message() + "\n";
        break;
    }

    harvestCounters(rep, *runner, injector);
    rep.finalStatus = st;
    runner->readBack(res);
    last_ = std::move(res);

    if (!st.ok()) {
        rep.cls = RunClass::kDetectedUnrecoverable;
        return rep;
    }

    rep.cycles = last_.cycles;
    if (Status diff = checkOutputs(prog_, golden_, last_, "golden vs run");
        !diff.ok()) {
        rep.cls = RunClass::kSilentCorruption;
        rep.detail += "output diverges from the fault-free golden run: " +
                      diff.message() + "\n";
    } else if (rep.rollbacks || rep.restarts || rep.remaps) {
        rep.cls = RunClass::kRecovered;
    } else if (rep.eccCorrected || rep.dramCorrected || rep.dramRetries) {
        rep.cls = RunClass::kCorrected;
    } else if (rep.eventsFired) {
        rep.cls = RunClass::kMasked;
    } else {
        rep.cls = RunClass::kClean;
    }
    return rep;
}

} // namespace plast::resilience

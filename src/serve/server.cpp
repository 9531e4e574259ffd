#include "serve/server.hpp"

#include <algorithm>

#include "arch/cfgio.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "fuzz/diff.hpp"
#include "pir/serialize.hpp"
#include "resilience/recovery.hpp"
#include "runtime/bottleneck.hpp"
#include "runtime/manifest.hpp"
#include "runtime/runner.hpp"
#include "sim/execplan.hpp"

namespace plast::serve
{

uint64_t
hashProgram(const pir::Program &prog)
{
    return fnv1a64(pir::programToText(prog));
}

uint64_t
hashArch(const ArchParams &params)
{
    return fnv1a64(archParamsText(params));
}

uint64_t
hashInputs(const std::map<pir::MemId, std::vector<Word>> &bufs)
{
    Fnv1a f;
    for (const auto &[mid, data] : bufs) {
        f.u32(static_cast<uint32_t>(mid));
        f.u64(data.size());
        for (Word w : data)
            f.u32(w);
    }
    return f.h;
}

uint64_t
hashOptions(const ServeOptions &opts, Cycles jobMaxCycles)
{
    Fnv1a f;
    f.str(schedulerName(opts.simOpts.engine));
    f.str(datapathName(opts.simOpts.engine));
    f.u64(jobMaxCycles ? jobMaxCycles : opts.maxCycles);
    f.byte(opts.validate ? 1 : 0);
    return f.h;
}

uint64_t
hashOptions(const ServeOptions &opts, const JobSpec &job)
{
    uint64_t base = hashOptions(opts, job.maxCycles);
    if (job.faultSeed == 0)
        return base; // plain jobs keep the hash recorded logs carry
    Fnv1a f;
    f.u64(base);
    f.u64(job.faultSeed);
    f.u64(static_cast<uint64_t>(job.faultRate * 1000.0));
    f.u64(job.faultHorizon);
    f.byte(job.faultHard ? 1 : 0);
    return f.h;
}

uint64_t
hashOutcome(const JobOutcome &out)
{
    Fnv1a f;
    f.str(out.outcome);
    f.u64(out.cycles);
    f.u64(out.argOuts.size());
    for (const auto &stream : out.argOuts) {
        f.u64(stream.size());
        for (Word w : stream)
            f.u32(w);
    }
    f.u64(out.dram.size());
    for (const auto &buf : out.dram) {
        f.u64(buf.size());
        for (Word w : buf)
            f.u32(w);
    }
    return f.h;
}

Server::Server(ServeOptions opts)
    : opts_(opts), queue_(opts.queueDepth),
      configCache_(opts.configCacheCapacity),
      resultCache_(opts.resultCacheCapacity)
{
    if (!opts_.storeDir.empty()) {
        StoreOptions so;
        so.dir = opts_.storeDir;
        so.maxBytes = opts_.storeMaxBytes;
        store_ = ConfigStore::open(std::move(so), &storeStatus_);
        if (!storeStatus_.ok())
            warn("config store '%s' degraded to %s: %s",
                 opts_.storeDir.c_str(),
                 storeModeName(store_->mode()),
                 storeStatus_.toString().c_str());
    }
}

Server::~Server()
{
    drain();
}

void
Server::start()
{
    panic_if(started_, "Server::start called twice");
    started_ = true;
    workers_.reserve(opts_.workers);
    for (uint32_t w = 0; w < opts_.workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

uint64_t
Server::submit(JobSpec spec)
{
    if (draining_.load(std::memory_order_relaxed))
        return 0;
    spec.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    if (spec.tenant.empty())
        spec.tenant = "default";
    if (spec.deadlineMs == 0)
        spec.deadlineMs = opts_.defaultDeadlineMs;
    uint64_t id = spec.id;

    // Circuit breaker: a tenant whose compiles keep failing is
    // fast-failed before it consumes queue space (every Nth
    // submission probes; a healthy compile closes the breaker).
    if (opts_.breakerThreshold && breakerRejects(spec.tenant)) {
        finishJob(rejectionRecord(
            spec, StatusCode::kCircuitOpen,
            strfmt("circuit open for tenant '%s' (%u consecutive "
                   "compile failures)",
                   spec.tenant.c_str(), opts_.breakerThreshold)));
        return id;
    }

    Queued q;
    q.enqueuedUs = HostProfiler::instance().nowUs();
    q.token = std::make_shared<CancelToken>();
    if (spec.deadlineMs)
        q.token->setDeadlineUs(q.enqueuedUs + spec.deadlineMs * 1000);
    {
        std::lock_guard<std::mutex> lk(tokensMu_);
        tokens_[id] = q.token;
    }
    // Keep what a rejection record needs: the spec moves into the
    // queue and is gone if the push times out.
    JobSpec rejected;
    rejected.id = spec.id;
    rejected.source = spec.source;
    rejected.tenant = spec.tenant;
    q.spec = std::move(spec);

    PushResult pr = queue_.tryPush(std::move(q), opts_.submitWaitUs);
    if (pr == PushResult::kOk)
        return id;
    {
        std::lock_guard<std::mutex> lk(tokensMu_);
        tokens_.erase(id);
    }
    if (pr == PushResult::kClosed)
        return 0; // draining: same contract as before
    finishJob(rejectionRecord(
        rejected, StatusCode::kShed,
        strfmt("admission wait (%lluus) exhausted on a full queue",
               static_cast<unsigned long long>(opts_.submitWaitUs))));
    return id;
}

bool
Server::cancelJob(uint64_t id)
{
    std::lock_guard<std::mutex> lk(tokensMu_);
    auto it = tokens_.find(id);
    if (it == tokens_.end())
        return false;
    it->second->requestCancel();
    return true;
}

void
Server::drain()
{
    draining_.store(true, std::memory_order_relaxed);
    queue_.close();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
    // Every compile this run produced is durable before drain()
    // returns — a drained daemon's successor starts fully warm.
    if (store_)
        store_->flush();
}

std::vector<JobResult>
Server::results() const
{
    std::lock_guard<std::mutex> lk(resultsMu_);
    std::vector<JobResult> out = results_;
    std::sort(out.begin(), out.end(),
              [](const JobResult &a, const JobResult &b) {
                  return a.id < b.id;
              });
    return out;
}

void
Server::workerLoop(uint32_t idx)
{
    while (auto q = queue_.pop()) {
        uint64_t startUs = HostProfiler::instance().nowUs();
        const CancelToken *tok = q->token.get();
        JobResult rec;
        if (tok && (tok->cancelRequested() || tok->expired(startUs))) {
            // The budget died while the job sat in the queue: a typed
            // record without spending a fabric build on it.
            rec = rejectionRecord(q->spec,
                                  tok->cancelRequested()
                                      ? StatusCode::kCancelled
                                      : StatusCode::kDeadlineExceeded,
                                  "expired while queued");
            rec.worker = idx;
        } else {
            rec = executeJob(std::move(q->spec), idx, tok);
        }
        uint64_t doneUs = HostProfiler::instance().nowUs();
        rec.waitUs = static_cast<double>(startUs - q->enqueuedUs);
        rec.execUs = static_cast<double>(doneUs - startUs);
        finishJob(std::move(rec));
    }
}

JobResult
Server::rejectionRecord(const JobSpec &spec, StatusCode code,
                        const std::string &why)
{
    JobResult rec;
    rec.id = spec.id;
    rec.source = spec.source;
    rec.tenant = spec.tenant.empty() ? "default" : spec.tenant;
    rec.executed = false;
    rec.seq = kAuxSeqBase + auxSeq_.fetch_add(1, std::memory_order_relaxed);
    auto out = std::make_shared<JobOutcome>();
    out->outcome = statusCodeName(code);
    out->detail = why;
    out->resultHash = hashOutcome(*out);
    rec.outcome = std::move(out);
    return rec;
}

void
Server::finishJob(JobResult rec)
{
    {
        std::lock_guard<std::mutex> lk(tokensMu_);
        tokens_.erase(rec.id);
    }
    // Only executed jobs teach the breaker — rejections observing
    // themselves would feed back.
    if (rec.executed && opts_.breakerThreshold) {
        const std::string oc = rec.outcome ? rec.outcome->outcome : "lost";
        breakerObserve(
            rec.tenant,
            oc == statusCodeName(StatusCode::kCompileError) ||
                oc == statusCodeName(StatusCode::kValidationError));
    }
    std::lock_guard<std::mutex> lk(resultsMu_);
    if (resultHook_)
        resultHook_(rec);
    results_.push_back(std::move(rec));
}

namespace
{

/** Tally one record into the robustness counters. */
void
tally(Server::RobustnessCounters &c, const JobResult &r)
{
    const std::string oc = r.outcome ? r.outcome->outcome : "lost";
    c.shed += oc == statusCodeName(StatusCode::kShed);
    c.circuitOpen += oc == statusCodeName(StatusCode::kCircuitOpen);
    c.cancelled += oc == statusCodeName(StatusCode::kCancelled);
    c.deadlineMisses += oc == statusCodeName(StatusCode::kDeadlineExceeded);
    c.retries += r.retries;
}

} // namespace

Server::RobustnessCounters
Server::robustness() const
{
    RobustnessCounters c;
    std::lock_guard<std::mutex> lk(resultsMu_);
    for (const JobResult &r : results_)
        tally(c, r);
    return c;
}

bool
Server::breakerRejects(const std::string &tenant)
{
    std::lock_guard<std::mutex> lk(breakerMu_);
    Breaker &b = breakers_[tenant];
    if (!b.open)
        return false;
    if (++b.rejectedSinceProbe >= kBreakerProbeEvery) {
        b.rejectedSinceProbe = 0;
        return false; // admit as a probe
    }
    return true;
}

void
Server::breakerObserve(const std::string &tenant, bool compileFailed)
{
    std::lock_guard<std::mutex> lk(breakerMu_);
    Breaker &b = breakers_[tenant];
    if (!compileFailed) {
        b.fails = 0;
        b.open = false;
        return;
    }
    if (++b.fails >= opts_.breakerThreshold && !b.open) {
        b.open = true;
        b.rejectedSinceProbe = 0;
    }
}

namespace
{

/** Outcomes shaped by the caller's wall-clock budget, not by job
 *  content — never published to the result cache. */
bool
isAbortOutcome(const std::string &outcome)
{
    return outcome == statusCodeName(StatusCode::kCancelled) ||
           outcome == statusCodeName(StatusCode::kDeadlineExceeded);
}

} // namespace

std::shared_ptr<const JobOutcome>
Server::computeOutcome(Runner &runner, const JobSpec &job, JobResult &rec,
                       const CancelToken *cancel)
{
    CacheKey ck;
    ck.pir = rec.pirHash;
    ck.arch = rec.archHash;
    bool fromStore = false;
    auto acq = configCache_.acquire(ck, [&]() -> ConfigCache::ValuePtr {
        // The single-flight miss path: probe the persistent store
        // before paying for place-and-route. Only this builder runs
        // per key, so the disk is read once and written once no
        // matter how many workers want the config.
        if (store_) {
            StoredConfig sc;
            Status st = store_->load(ck.pir, ck.arch, sc);
            if (st.ok()) {
                fromStore = true;
                auto cc = std::make_shared<CompiledConfig>();
                cc->map = toMapResult(std::move(sc));
                return cc;
            }
            // kNotFound / kCorrupt (quarantined) / kUnavailable all
            // degrade identically: compile fresh. A re-persist below
            // repairs a quarantined key.
        }
        auto cc = std::make_shared<CompiledConfig>();
        cc->status = runner.tryCompile();
        cc->map = runner.sharedMapResult();
        if (!cc->map) {
            // Failed compile: freeze a diagnostics copy so duplicate
            // bad programs are refused from cache, with the same
            // typed status a fresh compile would produce.
            cc->map = std::make_shared<const compiler::MapResult>(
                runner.mapResult());
        } else if (store_) {
            // Write-behind: the hot path never blocks on fsync.
            // Failed compiles are never persisted — negative entries
            // stay in-memory-only, so a store can never refuse a
            // program a fresh daemon would accept.
            store_->persist(ck.pir, ck.arch, cc->map);
        }
        return cc;
    });
    rec.configHit = acq.hit;
    if (!opts_.resultCache)
        rec.seq = acq.seq;

    auto out = std::make_shared<JobOutcome>();
    const CompiledConfig &cc = *acq.value;
    Status st = cc.status;
    if (st.ok()) {
        // Adopt whenever this runner did not compile itself: a cache
        // hit (another worker compiled) or a store hit (a previous
        // daemon incarnation compiled).
        if (acq.hit || fromStore)
            runner.adoptCompiled(cc.map);
        if (job.faultSeed)
            return computeResilient(runner, job, rec, cancel);
        st = runner.tryRun(*out, job.maxCycles ? job.maxCycles
                                               : opts_.maxCycles);
    }
    runner.readBack(*out);
    if (st.ok() && opts_.validate)
        st = runner.checkReference(*out);
    out->outcome = statusCodeName(st.code());
    out->detail = st.ok() ? "" : st.message();
    // A job that stopped without completing gets a partial post-mortem:
    // which units were mid-flight and what the blocking verdict is.
    if (runner.fabric() && !st.ok() &&
        (isAbortOutcome(out->outcome) ||
         st.code() == StatusCode::kDeadlock)) {
        DeadlockReport dr = analyzeDeadlock(*runner.fabric());
        out->detail += "\npost-mortem: " + dr.verdict;
    }
    out->resultHash = hashOutcome(*out);
    return out;
}

std::shared_ptr<const JobOutcome>
Server::computeResilient(Runner &runner, const JobSpec &job,
                         JobResult &rec, const CancelToken *cancel)
{
    // The recovery orchestrator owns its own runners; this worker's
    // runner contributes the staged inputs and its compile, which the
    // golden run and every unmasked attempt adopt and the fault plan
    // targets. maxCycles 0 derives the cap from the golden run.
    resilience::ResilientRunner rr(job.prog, job.params,
                                   runner.sharedMapResult(), job.maxCycles);
    rr.setInputs(runner.hostBuffers());
    if (cancel)
        rr.setCancelToken(cancel);

    resilience::FaultPlan plan = resilience::FaultPlan::random(
        job.faultSeed, job.faultRate, job.faultHorizon,
        runner.mapResult().fabric, resilience::FaultMix::kAll,
        job.faultHard);
    resilience::ResilienceReport rep = rr.run(plan);
    rec.retries += rep.rollbacks + rep.restarts + rep.remaps;

    auto out = std::make_shared<JobOutcome>();
    static_cast<RunRecord &>(*out) = rr.lastRun();
    switch (rep.cls) {
      case resilience::RunClass::kClean:
      case resilience::RunClass::kMasked:
      case resilience::RunClass::kCorrected:
        out->outcome = statusCodeName(StatusCode::kOk);
        break;
      case resilience::RunClass::kRecovered:
      case resilience::RunClass::kSilentCorruption:
        out->outcome = resilience::runClassName(rep.cls);
        break;
      case resilience::RunClass::kCompileError:
      case resilience::RunClass::kDetectedUnrecoverable:
        // Keep the typed status (cancelled, deadline-exceeded,
        // deadlock, ...) so abort outcomes stay recognizable.
        out->outcome = statusCodeName(rep.finalStatus.code());
        break;
    }
    out->detail = rep.finalStatus.ok()
                      ? rep.detail
                      : rep.finalStatus.message() + "\n" + rep.detail;
    out->resultHash = hashOutcome(*out);
    return out;
}

JobResult
Server::executeJob(JobSpec job, uint32_t worker, const CancelToken *cancel)
{
    JobResult rec;
    rec.id = job.id;
    rec.source = job.source;
    rec.tenant = job.tenant.empty() ? "default" : job.tenant;
    rec.worker = worker;

    // Stage: each job gets its own Runner (and thus its own Fabric) —
    // nothing mutable is shared between workers except the caches.
    Runner runner(job.prog, job.params, opts_.simOpts);
    if (job.load)
        job.load(runner);
    else
        fuzz::fillInputs(runner, job.prog);
    if (cancel)
        runner.setCancelToken(cancel);

    rec.pirHash = hashProgram(job.prog);
    rec.archHash = hashArch(job.params);
    rec.inputsHash = hashInputs(runner.hostBuffers());
    rec.optionsHash = hashOptions(opts_, job);

    if (opts_.resultCache) {
        CacheKey rk{rec.pirHash, rec.archHash, rec.inputsHash,
                    rec.optionsHash};
        // A cancelled/deadline outcome is this job's record but never
        // the key's cached value: the builder abandons (returns null)
        // and the single-flight slot passes to a waiting follower.
        std::shared_ptr<const JobOutcome> aborted;
        auto acq = resultCache_.acquire(
            rk,
            [&]() -> ResultCache::ValuePtr {
                auto out = computeOutcome(runner, job, rec, cancel);
                if (isAbortOutcome(out->outcome)) {
                    aborted = out;
                    return nullptr;
                }
                return out;
            },
            cancel);
        rec.seq = acq.seq;
        rec.resultHit = acq.hit && acq.value != nullptr;
        if (acq.value) {
            rec.outcome = acq.value;
        } else if (aborted) {
            rec.outcome = aborted;
        } else {
            // Gave up waiting on another job's in-flight build.
            auto out = std::make_shared<JobOutcome>();
            bool wasCancel = cancel && cancel->cancelRequested();
            out->outcome = statusCodeName(
                wasCancel ? StatusCode::kCancelled
                          : StatusCode::kDeadlineExceeded);
            out->detail = "budget expired while waiting on an "
                          "in-flight build of the same key";
            out->resultHash = hashOutcome(*out);
            rec.outcome = std::move(out);
        }
    } else {
        rec.outcome = computeOutcome(runner, job, rec, cancel);
    }
    return rec;
}

void
Server::exportMetrics(StatSet &reg) const
{
    reg.set("serve.workers", opts_.workers);
    reg.set("serve.queue.capacity", queue_.capacity());
    reg.set("serve.queue.high_water", queueHighWater());
    reg.gauge("serve.queue.occupancy",
              static_cast<int64_t>(queue_.size()));
    reg.set("serve.jobs.submitted", queue_.pushed());

    CacheStats cs = configCache_.stats();
    reg.set("serve.cache.config.hits", cs.hits);
    reg.set("serve.cache.config.misses", cs.misses);
    reg.set("serve.cache.config.evictions", cs.evictions);
    reg.set("serve.cache.config.size", cs.size);
    CacheStats rs = resultCache_.stats();
    reg.set("serve.cache.result.hits", rs.hits);
    reg.set("serve.cache.result.misses", rs.misses);
    reg.set("serve.cache.result.evictions", rs.evictions);
    reg.set("serve.cache.result.abandoned", rs.abandoned);
    reg.set("serve.cache.result.size", rs.size);

    if (store_) {
        StoreStats ss = store_->stats();
        reg.set("serve.store.hits", ss.hits);
        reg.set("serve.store.misses", ss.misses);
        reg.set("serve.store.writes", ss.writes);
        reg.set("serve.store.write_failures", ss.writeFailures);
        reg.set("serve.store.corrupt_quarantined", ss.corruptQuarantined);
        reg.set("serve.store.evicted", ss.evicted);
        reg.set("serve.store.fallback", ss.fallback);
        reg.set("serve.store.records", ss.records);
        reg.set("serve.store.bytes", ss.bytes);
    }

    static const std::vector<uint64_t> kUsEdges = {
        100,     1'000,     10'000,     100'000,
        1'000'000, 10'000'000, 100'000'000};
    Histogram &wait = reg.histogram("serve.job.wait_us", kUsEdges);
    Histogram &exec = reg.histogram("serve.job.exec_us", kUsEdges);

    std::lock_guard<std::mutex> lk(resultsMu_);
    reg.set("serve.jobs.completed", results_.size());
    uint64_t cycles = 0;
    uint64_t executed = 0;
    RobustnessCounters rc;
    for (const JobResult &r : results_) {
        reg.add("serve.outcome." +
                (r.outcome ? r.outcome->outcome : "lost"));
        wait.observe(static_cast<uint64_t>(r.waitUs));
        exec.observe(static_cast<uint64_t>(r.execUs));
        if (r.executed)
            ++executed;
        if (r.outcome)
            cycles += r.outcome->cycles;
        tally(rc, r);
    }
    reg.set("serve.jobs.executed", executed);
    reg.set("serve.cycles_total", cycles);
    reg.set("serve.jobs.shed", rc.shed);
    reg.set("serve.jobs.circuit_open", rc.circuitOpen);
    reg.set("serve.jobs.cancelled", rc.cancelled);
    reg.set("serve.jobs.deadline_misses", rc.deadlineMisses);
    reg.set("serve.retries.total", rc.retries);
}

} // namespace plast::serve

/**
 * @file
 * The multi-tenant compile-and-serve daemon core (DESIGN.md §15): a
 * bounded job queue in front of a fixed worker pool, where each worker
 * owns an independent Runner/Fabric per job and two content-addressed
 * single-flight caches collapse duplicate work:
 *
 *   config cache   (pirHash, archHash)          — identical kernels
 *                  never pay place-and-route twice; a hit adopts the
 *                  frozen compiler::MapResult another worker produced.
 *   result cache   (pirHash, archHash, inputsHash, optionsHash) — the
 *                  simulator is deterministic end to end, so a
 *                  bit-identical job (same program, architecture,
 *                  staged inputs and execution options) is served its
 *                  memoized outcome without simulating again. This is
 *                  what makes hot duplicate traffic cheap.
 *
 * Hashes are the manifest layer's platform-stable FNV-1a over
 * canonical text serializations (runtime/manifest.hpp), so a run
 * manifest's (pir_hash, arch_hash) is literally the config cache
 * address.
 *
 * Every job produces a JobResult — outcome, cycles, content hashes,
 * hit flags and a result hash over argOuts + DRAM image — and the
 * ordered log of those records replays deterministically
 * (serve/joblog.hpp). Failures never kill the daemon: compile errors,
 * deadlocks, address faults and validation mismatches come back as
 * typed outcomes (the runtime's never-fail Status paths).
 *
 * Robustness layer (DESIGN.md §16): every job is bounded, cancellable
 * and recoverable. Submission passes admission control — a per-tenant
 * circuit breaker over repeated compile failures, then a bounded wait
 * on the full queue — and rejected work still produces a typed record
 * (kCircuitOpen / kShed) instead of silently vanishing. Admitted jobs
 * carry a CancelToken armed with their wall-clock deadline; the fabric
 * polls it mid-simulation, so a stuck or slow job returns kCancelled /
 * kDeadlineExceeded within its budget and the worker moves on.
 * Deadline-typed outcomes are never published to the result cache
 * (they depend on wall clock, not content); an abandoned single-flight
 * build is handed off to a waiting follower. A job with a fault plan
 * runs under the checkpoint-rollback recovery orchestrator
 * (resilience/recovery.hpp), which checks its outputs against a
 * fault-free golden run; every other job runs exactly once.
 */

#ifndef PLAST_SERVE_SERVER_HPP
#define PLAST_SERVE_SERVER_HPP

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/stats.hpp"
#include "base/status.hpp"
#include "compiler/mapper.hpp"
#include "pir/ir.hpp"
#include "runtime/record.hpp"
#include "serve/cache.hpp"
#include "serve/queue.hpp"
#include "serve/store.hpp"
#include "sim/fabric.hpp"

namespace plast
{
class Runner;
}

namespace plast::serve
{

/** One unit of work: a PIR program, the architecture to compile it
 *  for, and how to stage its inputs. */
struct JobSpec
{
    uint64_t id = 0;    ///< assigned by Server::submit
    std::string source; ///< replayable origin ("app:GEMM", "fuzz:7", ...)
    pir::Program prog;
    ArchParams params = ArchParams::plasticineFinal();
    /** Stage inputs into the runner's DRAM buffers; null = the
     *  fill-by-name convention (fuzz::fillInputs), which is what wire
     *  jobs parsed from .pir files use. Must be deterministic — the
     *  staged image is part of the result-cache content address. */
    std::function<void(Runner &)> load;
    /** Per-job cycle budget of a plain job (0 = the server default).
     *  Part of the result-cache options hash, faulted or not; a faulted
     *  job's attempts are bounded by the recovery orchestrator's own
     *  cap instead. */
    Cycles maxCycles = 0;

    // ---- robustness knobs (DESIGN.md §16) ----------------------------
    /** Circuit-breaker key; empty means "default". */
    std::string tenant;
    /** Wall-clock budget in ms from submission (0 = the server
     *  default). NOT part of the options hash: a deadline shapes when
     *  a job is abandoned, never what it computes. */
    uint64_t deadlineMs = 0;
    /** Fault-injection campaign: a non-zero seed arms a seeded random
     *  fault plan over the compiled fabric, spanning the job's golden
     *  (fault-free) run, and runs the job under the recovery
     *  orchestrator. Part of the options hash — a faulted execution is
     *  a different execution. */
    uint64_t faultSeed = 0;
    double faultRate = 200.0; ///< events per million cycles
    bool faultHard = false; ///< include stuck-unit (hard) faults
};

/** The memoized, shareable part of a finished job: everything a
 *  bit-identical resubmission should be served without re-running.
 *  An executed job's run record has its DRAM read back (every image
 *  empty when no fabric was built, e.g. compile errors); a job that
 *  never ran has no images at all. */
struct JobOutcome : RunRecord
{
    std::string outcome; ///< statusCodeName of the final status
    std::string detail;  ///< status message ("" when ok)
    /** FNV-1a over outcome + cycles + argOuts + DRAM image (the
     *  compact bit-exactness witness the stress/replay tests
     *  compare). */
    uint64_t resultHash = 0;
};

/** Per-submission record (one line of the job log). */
struct JobResult
{
    uint64_t id = 0;
    std::string source;
    uint64_t seq = 0; ///< cache-access order (the replay order)
    uint64_t pirHash = 0;
    uint64_t archHash = 0;
    uint64_t inputsHash = 0;
    uint64_t optionsHash = 0;
    bool resultHit = false; ///< served from the result cache
    bool configHit = false; ///< compile skipped via the config cache
    uint32_t worker = 0;
    double waitUs = 0; ///< submit -> dequeue (not replayed)
    double execUs = 0; ///< dequeue -> done (not replayed)
    /** False when the job never ran: rejected at admission (shed,
     *  circuit-open) or its budget expired while still queued. Such
     *  records never touched the caches and are excluded from replay
     *  determinism checks (their seq lives in a disjoint band). */
    bool executed = true;
    /** Recovery actions the orchestrator took for a faulted job
     *  (rollbacks + restarts + remaps); 0 for plain jobs. */
    uint32_t retries = 0;
    std::string tenant;
    std::shared_ptr<const JobOutcome> outcome;
};

struct ServeOptions
{
    uint32_t workers = 4;
    size_t queueDepth = 64;
    size_t configCacheCapacity = 256;
    size_t resultCacheCapacity = 256;
    /** Serve memoized outcomes for bit-identical jobs (default on;
     *  the config cache is always on). */
    bool resultCache = true;
    /** Run the reference evaluator and compare bit-exactly on every
     *  executed plain job (kMismatch outcome on divergence; faulted
     *  jobs are already checked against their golden run). Expensive;
     *  off in production-shaped runs, on in paranoid ones. */
    bool validate = false;
    Cycles maxCycles = 500'000'000;
    SimOptions simOpts;

    // ---- robustness (DESIGN.md §16) ----------------------------------
    /** Deadline applied to jobs that do not set their own (0 = none). */
    uint64_t defaultDeadlineMs = 0;
    /** Bounded admission wait on a full queue before the job is shed
     *  with a typed rejection instead of blocking the submitter (the
     *  only source of a kShed outcome). */
    uint64_t submitWaitUs = 1'000'000;
    /** Consecutive compile failures that open a tenant's circuit
     *  breaker (0 = breaker off). */
    uint32_t breakerThreshold = 0;

    // ---- persistent config store (DESIGN.md §17) ---------------------
    /** Directory for the crash-safe compiled-config store; empty
     *  disables persistence. The config-cache miss path probes it
     *  before compiling, and the single-flight builder persists fresh
     *  compiles write-behind — a warm-restarted daemon serves
     *  persisted keys with zero recompiles. An unusable directory
     *  degrades to in-memory-only serving (never a failed start). */
    std::string storeDir;
    /** Store size cap in bytes (0 = unbounded); oldest records are
     *  evicted past it. */
    uint64_t storeMaxBytes = 0;
};

/** A config-cache entry: the typed compile status plus the frozen
 *  compile result (diagnostics on failure — negative entries keep the
 *  exact status a fresh compile would have returned, down to
 *  validation-error vs compile-error). `map` is never null. */
struct CompiledConfig
{
    Status status;
    std::shared_ptr<const compiler::MapResult> map;
};

using ConfigCache = SingleFlightCache<CompiledConfig>;
using ResultCache = SingleFlightCache<JobOutcome>;

// ---- content addressing ---------------------------------------------
/** fnv1a64(programToText(prog)) — identical to RunManifest::pirHash. */
uint64_t hashProgram(const pir::Program &prog);
/** fnv1a64(archParamsText(params)) — identical to
 *  RunManifest::archHash. */
uint64_t hashArch(const ArchParams &params);
/** FNV-1a over the staged host input buffers (MemId + words, in id
 *  order). */
uint64_t hashInputs(const std::map<pir::MemId, std::vector<Word>> &bufs);
/** FNV-1a over the execution options that shape a result: engine
 *  (scheduler and datapath names), cycle budget, validate flag. */
uint64_t hashOptions(const ServeOptions &opts, Cycles jobMaxCycles);
/** Job-aware overload: additionally folds the job's fault-plan
 *  parameters, seed, rate and hard flag (a faulted execution is a
 *  different execution; the plan's horizon is the golden run, which
 *  the rest of the key already fixes).
 *  Bit-identical to the base overload for plain jobs, so recorded logs
 *  stay addressable. Deadlines are deliberately NOT hashed — see
 *  JobSpec::deadlineMs. */
uint64_t hashOptions(const ServeOptions &opts, const JobSpec &job);
/** The bit-exactness witness over a finished outcome. */
uint64_t hashOutcome(const JobOutcome &out);

class Server
{
  public:
    explicit Server(ServeOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Spawn the worker pool. */
    void start();

    /**
     * Enqueue a job through admission control. Returns the job id, or
     * 0 if the server is already draining. A rejected job (circuit
     * breaker, load shed, admission timeout) still gets a non-zero id
     * and a typed JobResult record — callers distinguish rejection
     * from execution via JobResult::executed / outcome.
     */
    uint64_t submit(JobSpec spec);

    /** Request cooperative cancellation of a queued or running job.
     *  The job finishes with a typed kCancelled outcome within one
     *  cancel-poll window. False when the id is unknown or the job
     *  already finished. */
    bool cancelJob(uint64_t id);

    /** Close the queue, let queued jobs finish, join the workers.
     *  Idempotent; the destructor calls it. */
    void drain();

    /** All finished jobs, sorted by id. Call after drain() for the
     *  complete set (calling earlier snapshots what has finished). */
    std::vector<JobResult> results() const;

    CacheStats configCacheStats() const { return configCache_.stats(); }
    CacheStats resultCacheStats() const { return resultCache_.stats(); }
    size_t queueHighWater() const { return queue_.highWater(); }
    const ServeOptions &options() const { return opts_; }

    /** The persistent config store (null when storeDir is empty).
     *  Mode/degradation is the store's own concern — a disabled store
     *  still answers stats(). */
    ConfigStore *store() { return store_.get(); }
    const ConfigStore *store() const { return store_.get(); }
    /** Why the store degraded at open (ok when fully read-write or
     *  when no store was configured). */
    const Status &storeStatus() const { return storeStatus_; }

    /**
     * Install a hook invoked for every finished JobResult at the
     * finishJob choke point (serialized; called with internal
     * bookkeeping already updated). Powers --joblog-sync durable
     * append. Must be set before start().
     */
    void setResultHook(std::function<void(const JobResult &)> hook)
    {
        resultHook_ = std::move(hook);
    }

    /** Every Nth submission from an open-breaker tenant is admitted as
     *  a probe; a healthy compile closes the breaker. */
    static constexpr uint32_t kBreakerProbeEvery = 8;

    /** Robustness counters, tallied from the finished records — the
     *  job log is the only ledger. */
    struct RobustnessCounters
    {
        uint64_t shed = 0;           ///< records with outcome "shed"
        uint64_t circuitOpen = 0;    ///< outcome "circuit-open"
        uint64_t cancelled = 0;      ///< outcome "cancelled"
        uint64_t deadlineMisses = 0; ///< outcome "deadline-exceeded"
        uint64_t retries = 0;        ///< sum of JobResult::retries
    };
    RobustnessCounters robustness() const;

    /** Counters + latency histograms into the metrics registry
     *  (serve.* namespace; see DESIGN.md §15). */
    void exportMetrics(StatSet &reg) const;

    /**
     * Execute one job synchronously on the calling thread against this
     * server's caches — the serial-replay entry point (and what the
     * workers run). `worker` tags the result only; `cancel`, when
     * non-null, is polled by the simulation and the cache wait path.
     */
    JobResult executeJob(JobSpec job, uint32_t worker = 0,
                         const CancelToken *cancel = nullptr);

  private:
    struct Queued
    {
        JobSpec spec;
        uint64_t enqueuedUs = 0;
        std::shared_ptr<CancelToken> token;
    };

    void workerLoop(uint32_t idx);
    std::shared_ptr<const JobOutcome>
    computeOutcome(Runner &runner, const JobSpec &job, JobResult &rec,
                   const CancelToken *cancel);
    /** A faulted job: run its fault plan under the recovery
     *  orchestrator and classify against the fault-free golden run. */
    std::shared_ptr<const JobOutcome>
    computeResilient(Runner &runner, const JobSpec &job, JobResult &rec,
                     const CancelToken *cancel);
    /** Record a job that never ran (admission rejection / queued
     *  expiry) with a typed outcome in the aux seq band. */
    JobResult rejectionRecord(const JobSpec &spec, StatusCode code,
                              const std::string &why);
    /** Single choke point every record passes through: unregisters the
     *  cancel token, feeds the circuit breaker, then appends to
     *  results_. */
    void finishJob(JobResult rec);
    bool breakerRejects(const std::string &tenant);
    void breakerObserve(const std::string &tenant, bool compileFailed);

    ServeOptions opts_;
    BoundedQueue<Queued> queue_;
    ConfigCache configCache_;
    ResultCache resultCache_;
    std::unique_ptr<ConfigStore> store_;
    Status storeStatus_;
    std::function<void(const JobResult &)> resultHook_;
    std::vector<std::thread> workers_;
    std::atomic<uint64_t> nextId_{1};
    std::atomic<bool> draining_{false};
    bool started_ = false;

    /** Live tokens (queued + running) addressable by job id. */
    mutable std::mutex tokensMu_;
    std::map<uint64_t, std::shared_ptr<CancelToken>> tokens_;

    /** Per-tenant breaker over consecutive compile failures. */
    struct Breaker
    {
        uint32_t fails = 0;
        bool open = false;
        uint64_t rejectedSinceProbe = 0;
    };
    mutable std::mutex breakerMu_;
    std::map<std::string, Breaker> breakers_;

    /** Seq band for records that never touched the caches — disjoint
     *  from (and sorting after) every real cache seq. */
    static constexpr uint64_t kAuxSeqBase = 1ull << 62;
    std::atomic<uint64_t> auxSeq_{0};

    mutable std::mutex resultsMu_;
    std::vector<JobResult> results_;
};

} // namespace plast::serve

#endif // PLAST_SERVE_SERVER_HPP

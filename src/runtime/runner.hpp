/**
 * @file
 * Host-side runtime: compiles a PIR program, loads input arrays into
 * the accelerator's DRAM image, runs the cycle simulator to completion
 * and returns results plus performance statistics. The runner can also
 * execute the reference evaluator on the same inputs and check that
 * the fabric produced bit-identical results.
 */

#ifndef PLAST_RUNTIME_RUNNER_HPP
#define PLAST_RUNTIME_RUNNER_HPP

#include <map>
#include <memory>
#include <vector>

#include "base/stats.hpp"
#include "compiler/mapper.hpp"
#include "pir/eval.hpp"
#include "pir/ir.hpp"
#include "runtime/manifest.hpp"
#include "runtime/record.hpp"
#include "sim/fabric.hpp"

namespace plast
{

class Runner
{
  public:
    explicit Runner(pir::Program prog,
                    ArchParams params = ArchParams::plasticineFinal(),
                    SimOptions simOpts = {});

    /** Host-visible input/output staging for a DRAM buffer. */
    std::vector<Word> &dram(pir::MemId id);

    const compiler::MappingReport &report() const
    {
        return mapResult().report;
    }
    const pir::Program &program() const { return prog_; }

    using Result = RunRecord;

    /** Compile (once) and run the cycle simulator; fatal with the
     *  typed status when the run does not complete, plus the deadlock
     *  post-mortem (analyzeDeadlock) for a hang. */
    Result run(Cycles maxCycles = 500'000'000);

    // ---- non-fatal variants ------------------------------------------
    // The fatal APIs above remain for tests and tools where dying with
    // a message is the right behavior; the try* family returns a typed
    // Status instead so callers (fault campaigns, fuzzers, recovery)
    // can observe compile errors, deadlocks, address faults,
    // uncorrectable ECC errors, cancels, caps and validation mismatches
    // as data.

    /** Compile (once); kCompileError instead of fatal on failure. */
    Status tryCompile();
    /** Compile + run; failures come back as a Status. `out` carries
     *  stats and partial argOuts even when the run failed. Reads no
     *  DRAM back: that is readBack's job. */
    Status tryRun(Result &out, Cycles maxCycles = 500'000'000);
    /** tryRun, readBack, then checkReference; a divergence is
     *  kMismatch. */
    Status tryRunValidated(Result &out, Cycles maxCycles = 500'000'000);
    /** Fill `out.dram` from the last run's fabric (every entry empty
     *  when no fabric was built). */
    void readBack(Result &out) const;
    /** Run the reference evaluator and compare its argOut streams and
     *  DRAM buffers with a read-back result, bit for bit. */
    Status checkReference(const Result &res);

    /** Run the reference evaluator on the same inputs. */
    pir::Evaluator runReference() const;

    /**
     * Run both fabric and reference; fatal unless every argOut stream
     * and every output DRAM buffer matches bit for bit. Returns the
     * fabric result with its DRAM read back.
     */
    Result runValidated(Cycles maxCycles = 500'000'000);

    /**
     * The structured record of a finished (or failed) run: identity
     * hashes, modes, compile summary, outcome, phase timings and the
     * metric snapshot (runtime/manifest.hpp). `st` is the run's final
     * status — pass the Status a try* call returned, or default-ok
     * after a fatal-API run() that returned. Callable after tryCompile
     * alone (cycles 0, metrics empty) to record compile outcomes.
     */
    RunManifest buildManifest(const Result &res, Status st = Status()) const;
    /** buildManifest + schema-stable JSON emission. */
    void writeManifest(std::ostream &os, const Result &res,
                       Status st = Status()) const;

    /** DRAM contents after run() (by buffer). */
    std::vector<Word> readDram(pir::MemId id) const;

    /** Reference-side instrumentation (for the analytical models). */
    const pir::Evaluator::Counts &referenceCounts();

    /** The simulated fabric, alive after run() — null before the first
     *  run. Exposes the trace sink, utilization epochs and per-unit
     *  cycle ledgers for post-run analysis. */
    const Fabric *fabric() const { return fabric_.get(); }

    // ---- compiled-config sharing (the serve daemon's config cache) ---
    /** The frozen compile result, shareable across runners without
     *  copying the FabricConfig. Null until tryCompile succeeded. */
    std::shared_ptr<const compiler::MapResult> sharedMapResult() const
    {
        return shared_;
    }
    /**
     * Skip compilation entirely and reuse a compile result produced by
     * another runner (or compileProgram) for the *same* (program,
     * ArchParams) pair — this is how a config-cache hit avoids paying
     * place-and-route twice, and how the fuzz differential runs every
     * leg on one compile. Must be called before the first compile.
     * The caller owns the content-address discipline: adopting a
     * result compiled from a different program is undefined behavior
     * by construction.
     */
    void adoptCompiled(std::shared_ptr<const compiler::MapResult> map);

    // ---- resilience plumbing -----------------------------------------
    /** Compile with faulted physical units masked out of placement.
     *  Must be called before compilation. */
    void setUnitMask(compiler::UnitMask mask);
    /** Fault injector armed on every fabric the runner builds (and
     *  installed as the DRAM fault hook). */
    void setFaultInjector(resilience::FaultInjector *inj);
    /** Cooperative cancellation token armed on every fabric the runner
     *  builds: tryRun returns kCancelled / kDeadlineExceeded when it
     *  fires mid-simulation (partial stats and argOuts are still
     *  harvested for post-mortems). */
    void setCancelToken(const CancelToken *tok);
    /** The full compile result (placement, DRAM layout). After a
     *  failed compile this still carries the diagnostics. */
    const compiler::MapResult &mapResult() const
    {
        return shared_ ? *shared_ : map_;
    }
    /** Staged host input buffers (reusable across runners, e.g. when
     *  recovery recompiles onto a degraded fabric). */
    const std::map<pir::MemId, std::vector<Word>> &hostBuffers() const
    {
        return host_;
    }
    void setHostBuffers(std::map<pir::MemId, std::vector<Word>> bufs)
    {
        host_ = std::move(bufs);
    }
    /** Mutable fabric access for checkpoint/rollback orchestration. */
    Fabric *mutableFabric() { return fabric_.get(); }

  private:
    /** Instantiate the fabric and load the DRAM image. */
    void buildFabric();

    pir::Program prog_;
    ArchParams params_;
    SimOptions simOpts_;
    bool compiled_ = false;
    compiler::UnitMask mask_;
    resilience::FaultInjector *injector_ = nullptr;
    const CancelToken *cancel_ = nullptr;
    /** Failed-compile diagnostics only; successful compiles freeze
     *  into shared_ (shareable via the serve config cache). */
    compiler::MapResult map_;
    std::shared_ptr<const compiler::MapResult> shared_;
    /** Host-profiler window of this runner's own phases: the thread
     *  that constructed it and spans recorded since construction —
     *  keeps per-job manifest timings honest when many runners share
     *  one process (the serve worker pool). */
    uint32_t profTid_ = 0;
    uint64_t profSinceUs_ = 0;
    std::map<pir::MemId, std::vector<Word>> host_;
    std::unique_ptr<Fabric> fabric_;
    bool haveCounts_ = false;
    pir::Evaluator::Counts counts_;
};

} // namespace plast

#endif // PLAST_RUNTIME_RUNNER_HPP

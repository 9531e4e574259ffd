/**
 * @file
 * The compile-and-serve daemon CLI: feed .pir programs (the fuzzer's
 * seed-file wire format: the .pcfg params lines, the inject and
 * diagnosed lines, then the program text) or seeded synthetic traffic
 * through the multi-tenant server and report throughput, cache
 * effectiveness and per-job outcomes.
 *
 *   serve_app --traffic --jobs=96 --uniques=12 --workers=8
 *   serve_app --workers=4 --repeat=8 tests/corpus/seed.pir ...
 *   serve_app --traffic --log=jobs.log
 *   serve_app --traffic --replay=jobs.log     # prove determinism
 *   serve_app --traffic --metrics=serve.json  # unified metric dump
 *
 * Fault campaign (DESIGN.md §16): --faults=K injects a seeded fault
 * plan into every Kth job, which then runs under the checkpoint-
 * rollback orchestrator and is checked against its fault-free golden
 * run; --deadline-sweep subjects submissions to a cycle of wall-clock
 * budgets; and --tolerate-failures flips the exit criterion from
 * "every job ok" to "every job finished with a typed outcome and every
 * submission has its record" — the overload-safety proof, not the
 * happy-path proof.
 *
 * Exit status: 0 = every job ok and (for --replay) the replay
 * matched; 1 = some job failed or the replay diverged; 2 = usage or
 * IO errors. Job failures are typed outcomes, never daemon crashes.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "base/flags.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "base/stats.hpp"
#include "fuzz/harness.hpp"
#include "resilience/fault.hpp"
#include "serve/joblog.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "serve/traffic.hpp"

using namespace plast;

namespace
{

bool
loadPirFile(const std::string &path, std::vector<serve::JobSpec> &out)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "serve_app: cannot open '%s'\n",
                     path.c_str());
        return false;
    }
    fuzz::FuzzCase c;
    std::string err;
    if (!fuzz::readSeedFile(is, c, &err)) {
        std::fprintf(stderr, "serve_app: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    serve::JobSpec spec;
    spec.source = "file:" + path;
    spec.prog = std::move(c.prog);
    spec.params = c.params;
    // load stays null: wire jobs stage inputs by the fill-by-name
    // convention, same as fuzz replay. Fault injection modes are a
    // fuzzer concern and are ignored here.
    out.push_back(std::move(spec));
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    serve::ServeOptions sopts;
    serve::TrafficOptions topts;
    bool traffic = false;
    bool quiet = false;
    bool tolerateFailures = false;
    bool joblogSync = false;
    uint64_t repeat = 1;
    std::string logPath, replayPath, metricsPath;
    std::vector<std::string> files;

    uint64_t storeMaxMb = 0;
    FlagSet flags("serve_app", "[options] [file.pir ...]");
    flags.args("file.pir", files, "seed-format programs to serve")
        .num("workers", sopts.workers, "worker pool size", 1u, 1024u)
        .num("queue", sopts.queueDepth, "bounded queue depth", size_t{1})
        .num("config-cache", sopts.configCacheCapacity, "LRU capacity")
        .num("result-cache", sopts.resultCacheCapacity, "LRU capacity")
        .sw("no-result-cache", sopts.resultCache,
            "always re-execute duplicate jobs", false)
        .sw("validate", sopts.validate,
            "reference-check every executed job without a fault plan")
        .num("max-cycles", sopts.maxCycles, "default per-job cycle budget",
             Cycles{1})
        .num("repeat", repeat, "submit each file N times", uint64_t{1},
             uint64_t{1'000'000})
        .sw("traffic", traffic, "seeded synthetic traffic, not files")
        .num("jobs", topts.jobs, "traffic: submissions", size_t{1},
             size_t{10'000'000})
        .num("uniques", topts.uniques, "traffic: distinct identities",
             size_t{1}, size_t{1'000'000})
        .num("seed", topts.seed, "traffic: duplication-pattern seed")
        .str("log", logPath, "FILE", "write the replayable job log")
        .sw("joblog-sync", joblogSync,
            "append and flush each job log record as it finishes")
        .str("replay", replayPath, "FILE",
             "replay a job log serially; exit 1 on divergence")
        .str("metrics", metricsPath, "FILE", "write serve.* metrics JSON")
        .str("store-dir", sopts.storeDir, "DIR",
             "persist compiled configs and serve warm restarts (§17)")
        .num("store-max-mb", storeMaxMb,
             "evict oldest store records past N MiB (0 = unbounded)",
             uint64_t{1}, UINT64_MAX >> 20)
        .sw("quiet", quiet, "suppress the per-job report")
        .num("deadline-ms", sopts.defaultDeadlineMs,
             "default wall-clock budget per job (0 = none)", uint64_t{1})
        .num("submit-wait-us", sopts.submitWaitUs,
             "admission wait on a full queue before shedding")
        .num("breaker", sopts.breakerThreshold,
             "compile failures that open a tenant's breaker (0 = off)")
        .num("faults", topts.faultEvery,
             "traffic: fault-inject every Nth job (0 = none)", size_t{1})
        .real("fault-rate", topts.faultRate,
              "traffic: fault events per 1M cycles",
              resilience::kMaxEventsPerMillionCycles, true)
        .sw("fault-hard", topts.includeHard,
            "traffic: include stuck-unit faults")
        .nums("deadline-sweep", topts.deadlineSweepMs,
              "traffic: per-job deadlines in ms, cyclic (0 = none)")
        .num("tenants", topts.tenants, "traffic: tenants", size_t{1})
        .sw("tolerate-failures", tolerateFailures,
            "exit 0 when every job is typed and every submission logged");
    if (auto rc = flags.parse(argc, argv))
        return *rc;
    sopts.storeMaxBytes = storeMaxMb << 20;
    if (!traffic && files.empty()) {
        std::fprintf(stderr,
                     "serve_app: need .pir files or --traffic\n");
        std::fputs(flags.usage().c_str(), stderr);
        return 2;
    }

    // Assemble the job stream.
    std::vector<serve::JobSpec> specs;
    if (traffic) {
        specs = serve::makeTraffic(topts);
    } else {
        std::vector<serve::JobSpec> fileSpecs;
        for (const std::string &f : files) {
            if (!loadPirFile(f, fileSpecs))
                return 2;
        }
        for (uint64_t r = 0; r < repeat; ++r)
            for (const serve::JobSpec &s : fileSpecs)
                specs.push_back(s);
    }

    // Replay mode: check a previous run's log against this stream.
    if (!replayPath.empty()) {
        std::ifstream is(replayPath);
        if (!is) {
            std::fprintf(stderr, "serve_app: cannot open '%s'\n",
                         replayPath.c_str());
            return 2;
        }
        std::vector<serve::JobLogEntry> log;
        std::string err, warn;
        if (!serve::readJobLog(is, log, &err, &warn)) {
            std::fprintf(stderr, "serve_app: %s: %s\n",
                         replayPath.c_str(), err.c_str());
            return 2;
        }
        if (!warn.empty())
            std::fprintf(stderr, "serve_app: %s: %s\n",
                         replayPath.c_str(), warn.c_str());
        serve::ReplayReport rep =
            serve::replayLog(log, specs, sopts);
        std::printf("replayed %zu jobs: %zu result hits, %zu "
                    "skipped (rejected/aborted), %zu mismatches\n",
                    rep.jobs, rep.resultHits, rep.skipped,
                    rep.mismatches.size());
        for (const serve::ReplayMismatch &m : rep.mismatches)
            std::printf("  job %llu %s: logged %s, replay %s\n",
                        static_cast<unsigned long long>(m.id),
                        m.field.c_str(), m.logged.c_str(),
                        m.replayed.c_str());
        return rep.ok() ? 0 : 1;
    }

    // Serve.
    uint64_t t0 = HostProfiler::instance().nowUs();
    serve::Server server(sopts);

    // Durable job-log streaming: one line per finished job, flushed
    // before the result is visible, so a SIGKILLed daemon leaves a
    // replayable prefix (at worst one torn final line, which
    // readJobLog drops with a warning). The hook runs under the
    // server's results lock, so appends are serialized.
    std::ofstream syncLog;
    if (joblogSync && !logPath.empty()) {
        syncLog.open(logPath);
        if (!syncLog) {
            std::fprintf(stderr, "serve_app: cannot write '%s'\n",
                         logPath.c_str());
            return 2;
        }
        serve::writeJobLogHeader(syncLog);
        syncLog.flush();
        server.setResultHook([&syncLog](const serve::JobResult &r) {
            serve::writeJobLogLine(syncLog, r);
            syncLog.flush();
        });
    }

    server.start();
    for (serve::JobSpec &s : specs)
        server.submit(std::move(s));
    server.drain();
    uint64_t wallUs = HostProfiler::instance().nowUs() - t0;

    std::vector<serve::JobResult> results = server.results();
    size_t failed = 0;
    size_t untyped = 0;
    for (const serve::JobResult &r : results) {
        const std::string oc = r.outcome ? r.outcome->outcome : "lost";
        if (oc == "lost")
            ++untyped;
        if (oc != "ok")
            ++failed;
        if (!quiet) {
            std::printf(
                "job %4llu %-28s %-16s cycles=%-10llu %s%s%s r%u w%u\n",
                static_cast<unsigned long long>(r.id),
                r.source.c_str(), oc.c_str(),
                static_cast<unsigned long long>(
                    r.outcome ? r.outcome->cycles : 0),
                r.resultHit ? "R" : "-", r.configHit ? "C" : "-",
                r.executed ? "E" : "-", r.retries, r.worker);
        }
    }

    serve::CacheStats cfg = server.configCacheStats();
    serve::CacheStats res = server.resultCacheStats();
    double secs = static_cast<double>(wallUs) / 1e6;
    std::printf("served %zu jobs in %.3f s (%.1f jobs/s) on %u "
                "workers, %zu failed\n",
                results.size(), secs,
                secs > 0 ? static_cast<double>(results.size()) / secs
                         : 0.0,
                sopts.workers, failed);
    std::printf("config cache: %llu hits / %llu misses, %llu "
                "evictions, %zu entries\n",
                static_cast<unsigned long long>(cfg.hits),
                static_cast<unsigned long long>(cfg.misses),
                static_cast<unsigned long long>(cfg.evictions),
                cfg.size);
    std::printf("result cache: %llu hits / %llu misses, %llu "
                "evictions, %zu entries\n",
                static_cast<unsigned long long>(res.hits),
                static_cast<unsigned long long>(res.misses),
                static_cast<unsigned long long>(res.evictions),
                res.size);
    if (const serve::ConfigStore *st = server.store()) {
        serve::StoreStats ss = st->stats();
        std::printf(
            "config store (%s): %llu hits / %llu misses, %llu "
            "writes (%llu failed), %llu quarantined, %llu evicted, "
            "%llu fallback, %llu records / %llu bytes\n",
            serve::storeModeName(ss.mode),
            static_cast<unsigned long long>(ss.hits),
            static_cast<unsigned long long>(ss.misses),
            static_cast<unsigned long long>(ss.writes),
            static_cast<unsigned long long>(ss.writeFailures),
            static_cast<unsigned long long>(ss.corruptQuarantined),
            static_cast<unsigned long long>(ss.evicted),
            static_cast<unsigned long long>(ss.fallback),
            static_cast<unsigned long long>(ss.records),
            static_cast<unsigned long long>(ss.bytes));
    }

    // Robustness accounting: the counters are tallied from the job
    // records themselves, and every submission must have one.
    serve::Server::RobustnessCounters rc = server.robustness();
    bool allAccounted = results.size() == specs.size();
    std::printf("robustness: %llu shed, %llu circuit-open, %llu "
                "cancelled, %llu deadline-exceeded, %llu retries "
                "(%zu/%zu jobs accounted)\n",
                static_cast<unsigned long long>(rc.shed),
                static_cast<unsigned long long>(rc.circuitOpen),
                static_cast<unsigned long long>(rc.cancelled),
                static_cast<unsigned long long>(rc.deadlineMisses),
                static_cast<unsigned long long>(rc.retries),
                results.size(), specs.size());

    // A job log or metrics file the caller can't trust is worse than
    // none: every writer is checked after the final flush, and a
    // short write (disk full, quota, yanked volume) is a hard error,
    // not a silent success.
    if (joblogSync && !logPath.empty()) {
        syncLog.flush();
        if (!syncLog) {
            std::fprintf(stderr, "serve_app: short write on '%s'\n",
                         logPath.c_str());
            return 2;
        }
        syncLog.close();
    } else if (!logPath.empty()) {
        std::ofstream os(logPath);
        if (!os) {
            std::fprintf(stderr, "serve_app: cannot write '%s'\n",
                         logPath.c_str());
            return 2;
        }
        serve::writeJobLog(os, results);
        os.flush();
        if (!os) {
            std::fprintf(stderr, "serve_app: short write on '%s'\n",
                         logPath.c_str());
            return 2;
        }
    }
    if (!metricsPath.empty()) {
        StatSet reg;
        server.exportMetrics(reg);
        reg.set("serve.wall_us", wallUs);
        std::ofstream os(metricsPath);
        if (!os) {
            std::fprintf(stderr, "serve_app: cannot write '%s'\n",
                         metricsPath.c_str());
            return 2;
        }
        reg.writeJson(os);
        os.flush();
        if (!os) {
            std::fprintf(stderr, "serve_app: short write on '%s'\n",
                         metricsPath.c_str());
            return 2;
        }
    }
    if (tolerateFailures) {
        // Overload-safety criterion: every submission finished with a
        // typed terminal outcome (never hung, never lost).
        return untyped == 0 && allAccounted ? 0 : 1;
    }
    return failed == 0 ? 0 : 1;
}

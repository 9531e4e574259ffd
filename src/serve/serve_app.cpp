/**
 * @file
 * The compile-and-serve daemon CLI: feed .pir programs (the fuzzer's
 * seed-file wire format: arch header + inject line + program text) or
 * seeded synthetic traffic through the multi-tenant server and report
 * throughput, cache effectiveness and per-job outcomes.
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
 * "every job ok" to "every job finished with a typed outcome and the
 * robustness counters match the job log" — the overload-safety proof,
 * not the happy-path proof.
 *
 * Exit status: 0 = every job ok and (for --replay) the replay
 * matched; 1 = some job failed or the replay diverged; 2 = usage or
 * IO errors. Job failures are typed outcomes, never daemon crashes.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "base/logging.hpp"
#include "base/metrics.hpp"
#include "base/profile.hpp"
#include "fuzz/harness.hpp"
#include "serve/joblog.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "serve/traffic.hpp"

using namespace plast;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: serve_app [options] [file.pir ...]\n"
        "  --workers=N        worker pool size (default 4)\n"
        "  --queue=N          bounded queue depth (default 64)\n"
        "  --config-cache=N   config cache capacity (default 256)\n"
        "  --result-cache=N   result cache capacity (default 256)\n"
        "  --no-result-cache  always re-execute duplicate jobs\n"
        "  --validate         run the reference evaluator on every\n"
        "                     executed unfaulted job (mismatch = typed\n"
        "                     outcome)\n"
        "  --max-cycles=N     default per-job cycle budget\n"
        "  --repeat=N         submit each .pir file N times (default 1)\n"
        "  --traffic          generate seeded synthetic traffic from\n"
        "                     the app suite instead of reading files\n"
        "  --jobs=N           traffic: total submissions (default 64)\n"
        "  --uniques=N        traffic: distinct identities (default 8)\n"
        "  --seed=N           traffic: duplication-pattern seed\n"
        "  --log=FILE         write the job log (replayable)\n"
        "  --joblog-sync      stream the job log durably: append and\n"
        "                     flush each record as it finishes, so a\n"
        "                     killed daemon leaves a replayable prefix\n"
        "  --replay=FILE      replay a job log serially against the\n"
        "                     same traffic/files; exit 1 on divergence\n"
        "  --metrics=FILE     write serve.* metrics as JSON\n"
        "  --store-dir=DIR    persist compiled configs to DIR and\n"
        "                     serve warm restarts from it (DESIGN.md\n"
        "                     §17); unusable dirs degrade to\n"
        "                     in-memory-only serving, never crash\n"
        "  --store-max-mb=N   evict oldest store records past N MiB\n"
        "                     (default unbounded)\n"
        "  --store-no-sync    skip fsync on store publish (tests)\n"
        "  --quiet            suppress the per-job report\n"
        "robustness (DESIGN.md §16):\n"
        "  --deadline-ms=N    default wall-clock budget per job\n"
        "  --submit-wait-us=N bounded admission wait on a full queue,\n"
        "                     then the job is shed (default 1000000)\n"
        "  --breaker=N        consecutive compile failures that open\n"
        "                     a tenant's circuit breaker\n"
        "  --faults=K         traffic: inject a seeded fault plan\n"
        "                     into every Kth job and run it under\n"
        "                     checkpoint-rollback recovery\n"
        "  --fault-rate=R     traffic: fault events per 1M cycles\n"
        "  --fault-hard       traffic: include stuck-unit faults\n"
        "  --deadline-sweep=a,b,c  traffic: per-job deadlines (ms),\n"
        "                     assigned cyclically (0 = none)\n"
        "  --tenants=N        traffic: spread jobs over N tenants\n"
        "  --tolerate-failures  exit 0 when every job is typed and\n"
        "                     counters match the log (failures ok)\n");
}

bool
parseU64(const char *s, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 0);
    return end && *end == '\0' && end != s;
}

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

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            return a.compare(0, n, prefix) == 0 ? a.c_str() + n
                                                : nullptr;
        };
        uint64_t n = 0;
        if (const char *v = val("--workers=")) {
            if (!parseU64(v, n) || n == 0)
                return usage(), 2;
            sopts.workers = static_cast<uint32_t>(n);
        } else if (const char *v2 = val("--queue=")) {
            if (!parseU64(v2, n) || n == 0)
                return usage(), 2;
            sopts.queueDepth = n;
        } else if (const char *v3 = val("--config-cache=")) {
            if (!parseU64(v3, n))
                return usage(), 2;
            sopts.configCacheCapacity = n;
        } else if (const char *v4 = val("--result-cache=")) {
            if (!parseU64(v4, n))
                return usage(), 2;
            sopts.resultCacheCapacity = n;
        } else if (a == "--no-result-cache") {
            sopts.resultCache = false;
        } else if (a == "--validate") {
            sopts.validate = true;
        } else if (const char *v5 = val("--max-cycles=")) {
            if (!parseU64(v5, n) || n == 0)
                return usage(), 2;
            sopts.maxCycles = n;
        } else if (const char *v6 = val("--repeat=")) {
            if (!parseU64(v6, repeat) || repeat == 0)
                return usage(), 2;
        } else if (a == "--traffic") {
            traffic = true;
        } else if (const char *v7 = val("--jobs=")) {
            if (!parseU64(v7, n) || n == 0)
                return usage(), 2;
            topts.jobs = n;
        } else if (const char *v8 = val("--uniques=")) {
            if (!parseU64(v8, n) || n == 0)
                return usage(), 2;
            topts.uniques = n;
        } else if (const char *v9 = val("--seed=")) {
            if (!parseU64(v9, topts.seed))
                return usage(), 2;
        } else if (const char *vd = val("--deadline-ms=")) {
            if (!parseU64(vd, n) || n == 0)
                return usage(), 2;
            sopts.defaultDeadlineMs = n;
        } else if (const char *vw = val("--submit-wait-us=")) {
            if (!parseU64(vw, n))
                return usage(), 2;
            sopts.submitWaitUs = n;
        } else if (const char *vb = val("--breaker=")) {
            if (!parseU64(vb, n))
                return usage(), 2;
            sopts.breakerThreshold = static_cast<uint32_t>(n);
        } else if (const char *vf = val("--faults=")) {
            if (!parseU64(vf, n) || n == 0)
                return usage(), 2;
            topts.faultEvery = n;
        } else if (const char *vfr = val("--fault-rate=")) {
            char *end = nullptr;
            topts.faultRate = std::strtod(vfr, &end);
            if (!end || *end != '\0' || topts.faultRate <= 0)
                return usage(), 2;
        } else if (a == "--fault-hard") {
            topts.includeHard = true;
        } else if (const char *vds = val("--deadline-sweep=")) {
            std::stringstream ss(vds);
            std::string item;
            while (std::getline(ss, item, ',')) {
                // 0 is a legal sweep element: that job runs with no
                // deadline (mixes budgeted and unbudgeted traffic).
                if (!parseU64(item.c_str(), n))
                    return usage(), 2;
                topts.deadlineSweepMs.push_back(n);
            }
            if (topts.deadlineSweepMs.empty())
                return usage(), 2;
        } else if (const char *vt = val("--tenants=")) {
            if (!parseU64(vt, n) || n == 0)
                return usage(), 2;
            topts.tenants = n;
        } else if (a == "--tolerate-failures") {
            tolerateFailures = true;
        } else if (const char *v10 = val("--log=")) {
            logPath = v10;
        } else if (a == "--joblog-sync") {
            joblogSync = true;
        } else if (const char *vsd = val("--store-dir=")) {
            sopts.storeDir = vsd;
        } else if (const char *vsm = val("--store-max-mb=")) {
            if (!parseU64(vsm, n) || n == 0)
                return usage(), 2;
            sopts.storeMaxBytes = n * (1ull << 20);
        } else if (a == "--store-no-sync") {
            sopts.storeSync = false;
        } else if (const char *v11 = val("--replay=")) {
            replayPath = v11;
        } else if (const char *v12 = val("--metrics=")) {
            metricsPath = v12;
        } else if (a == "--quiet") {
            quiet = true;
        } else if (a == "--help" || a == "-h") {
            return usage(), 0;
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "serve_app: unknown option '%s'\n",
                         a.c_str());
            return usage(), 2;
        } else {
            files.push_back(a);
        }
    }
    if (!traffic && files.empty()) {
        std::fprintf(stderr,
                     "serve_app: need .pir files or --traffic\n");
        return usage(), 2;
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
    uint64_t logShed = 0, logCircuit = 0, logCancelled = 0,
             logDeadline = 0, logRetries = 0;
    for (const serve::JobResult &r : results) {
        const std::string oc = r.outcome ? r.outcome->outcome : "lost";
        if (oc == "lost")
            ++untyped;
        if (oc != "ok")
            ++failed;
        if (oc == "shed")
            ++logShed;
        else if (oc == "circuit-open")
            ++logCircuit;
        else if (oc == "cancelled")
            ++logCancelled;
        else if (oc == "deadline-exceeded")
            ++logDeadline;
        logRetries += r.retries;
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

    // Robustness accounting: the server's live counters must agree
    // with the job log record for record — any divergence means a job
    // was double-counted or lost.
    serve::Server::RobustnessCounters rc = server.robustness();
    bool countersMatch =
        rc.shed == logShed && rc.circuitOpen == logCircuit &&
        rc.cancelled == logCancelled && rc.deadlineMisses == logDeadline &&
        rc.retries == logRetries;
    bool allAccounted = results.size() == specs.size();
    std::printf("robustness: %llu shed, %llu circuit-open, %llu "
                "cancelled, %llu deadline-exceeded, %llu retries "
                "(counters %s log; %zu/%zu jobs accounted)\n",
                static_cast<unsigned long long>(rc.shed),
                static_cast<unsigned long long>(rc.circuitOpen),
                static_cast<unsigned long long>(rc.cancelled),
                static_cast<unsigned long long>(rc.deadlineMisses),
                static_cast<unsigned long long>(rc.retries),
                countersMatch ? "match" : "DIVERGE from",
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
        MetricRegistry reg;
        server.exportMetrics(reg);
        reg.setCounter("serve.wall_us", wallUs);
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
        // typed terminal outcome (never hung, never lost) and the
        // counters reconcile with the log exactly.
        return untyped == 0 && allAccounted && countersMatch ? 0 : 1;
    }
    return failed == 0 ? 0 : 1;
}

/**
 * @file
 * The serve-daemon concurrency battery: bounded-queue semantics,
 * single-flight cache behavior (hit/miss accounting, LRU eviction,
 * pending-entry pinning), FNV-1a hash-stability goldens tied to the
 * manifest layer, the N-worker stress test against a serial
 * single-Runner baseline (bit-identical argOuts / DRAM images /
 * architectural counters, duplicates served from cache), the shared
 * HostProfiler regression for overlapping runners, and the
 * deterministic job-log replay proof. The whole file also runs under
 * ThreadSanitizer in CI (the tsan job), so every test here is a race
 * detector, not just a correctness check.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "arch/cfgio.hpp"
#include "base/profile.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/harness.hpp"
#include "pir/serialize.hpp"
#include "runtime/manifest.hpp"
#include "runtime/runner.hpp"
#include "serve/joblog.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"

using namespace plast;
using namespace plast::serve;

// ---- bounded queue --------------------------------------------------

TEST(ServeQueue, FifoAndCloseDrains)
{
    BoundedQueue<int> q(8);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    q.close();
    EXPECT_FALSE(q.push(4)); // rejected after close...
    EXPECT_EQ(q.pop().value(), 1); // ...but queued items still drain
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_EQ(q.pushed(), 3u);
    EXPECT_EQ(q.highWater(), 3u);
}

TEST(ServeQueue, BackpressureBlocksProducerUntilPop)
{
    BoundedQueue<int> q(2);
    std::atomic<int> produced{0};
    std::thread producer([&] {
        for (int i = 0; i < 6; ++i) {
            ASSERT_TRUE(q.push(i));
            produced.fetch_add(1);
        }
    });
    // The producer can run at most `capacity` ahead of the consumer.
    std::vector<int> got;
    for (int i = 0; i < 6; ++i) {
        auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        got.push_back(*v);
        EXPECT_LE(static_cast<size_t>(produced.load()),
                  got.size() + q.capacity());
    }
    producer.join();
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_LE(q.highWater(), q.capacity());
}

TEST(ServeQueue, CloseWakesBlockedConsumers)
{
    BoundedQueue<int> q(4);
    std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
    q.close();
    consumer.join();
}

// ---- single-flight cache --------------------------------------------

namespace
{

CacheKey
key(uint64_t a, uint64_t b = 0)
{
    CacheKey k;
    k.pir = a;
    k.arch = b;
    return k;
}

} // namespace

TEST(ServeCache, MissThenHitAccounting)
{
    SingleFlightCache<int> c(4);
    auto a1 = c.acquire(key(1), [] { return std::make_shared<int>(7); });
    EXPECT_FALSE(a1.hit);
    EXPECT_EQ(*a1.value, 7);
    auto a2 = c.acquire(key(1), []() -> std::shared_ptr<const int> {
        ADD_FAILURE() << "builder ran on a hit";
        return nullptr;
    });
    EXPECT_TRUE(a2.hit);
    EXPECT_EQ(a2.value, a1.value); // same object, not a copy
    EXPECT_LT(a1.seq, a2.seq);
    CacheStats s = c.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.size, 1u);
}

TEST(ServeCache, DistinctKeysDoNotAlias)
{
    SingleFlightCache<int> c(8);
    // Any single differing component is a different address.
    CacheKey base{1, 2, 3, 4};
    std::vector<CacheKey> keys = {base,
                                  {9, 2, 3, 4},
                                  {1, 9, 3, 4},
                                  {1, 2, 9, 4},
                                  {1, 2, 3, 9}};
    for (size_t i = 0; i < keys.size(); ++i) {
        auto a = c.acquire(keys[i], [i] {
            return std::make_shared<int>(static_cast<int>(i));
        });
        EXPECT_FALSE(a.hit);
    }
    for (size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(*c.peek(keys[i]), static_cast<int>(i));
    EXPECT_EQ(c.stats().misses, keys.size());
    EXPECT_EQ(c.stats().hits, 0u);
}

TEST(ServeCache, SingleFlightBuildsOnceUnderContention)
{
    SingleFlightCache<int> c(4);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> builds{0};

    auto slowBuild = [&]() -> std::shared_ptr<const int> {
        builds.fetch_add(1);
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return release; });
        return std::make_shared<int>(42);
    };

    constexpr int kThreads = 8;
    std::atomic<int> hits{0};
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i) {
        ts.emplace_back([&] {
            auto a = c.acquire(key(5), slowBuild);
            EXPECT_EQ(*a.value, 42);
            if (a.hit)
                hits.fetch_add(1);
        });
    }
    // Let every thread reach the cache, then release the one builder.
    while (c.stats().hits + c.stats().misses <
           static_cast<uint64_t>(kThreads))
        std::this_thread::yield();
    {
        std::lock_guard<std::mutex> lk(mu);
        release = true;
    }
    cv.notify_all();
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(builds.load(), 1) << "duplicate keys must build once";
    EXPECT_EQ(hits.load(), kThreads - 1);
}

TEST(ServeCache, LruEvictionPrefersColdEntries)
{
    SingleFlightCache<int> c(2);
    auto mk = [](int v) {
        return [v] { return std::make_shared<int>(v); };
    };
    c.acquire(key(1), mk(1));
    c.acquire(key(2), mk(2));
    c.acquire(key(1), mk(1)); // touch 1: now 2 is coldest
    c.acquire(key(3), mk(3)); // evicts 2
    EXPECT_NE(c.peek(key(1)), nullptr);
    EXPECT_EQ(c.peek(key(2)), nullptr);
    EXPECT_NE(c.peek(key(3)), nullptr);
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().size, 2u);
}

TEST(ServeCache, PendingEntriesArePinnedAgainstEviction)
{
    SingleFlightCache<int> c(1);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;

    std::thread builder([&] {
        auto a = c.acquire(key(1), [&]() -> std::shared_ptr<const int> {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return release; });
            return std::make_shared<int>(1);
        });
        EXPECT_EQ(*a.value, 1);
    });
    while (c.stats().misses == 0)
        std::this_thread::yield();
    // Over-capacity insert while the only other entry is pending: the
    // pending entry must survive (transient overflow, no deadlock).
    auto a2 = c.acquire(key(2), [] { return std::make_shared<int>(2); });
    EXPECT_FALSE(a2.hit);
    {
        std::lock_guard<std::mutex> lk(mu);
        release = true;
    }
    cv.notify_all();
    builder.join();
    EXPECT_NE(c.peek(key(1)), nullptr)
        << "pending entry was evicted mid-build";
}

TEST(ServeCache, AccessLogRecordsSequenceAndHits)
{
    // Acquired::seq is the access order the job log records (as
    // JobResult::seq) and replay sorts by.
    SingleFlightCache<int> c(4);
    auto mk = [](int v) {
        return [v] { return std::make_shared<int>(v); };
    };
    auto a0 = c.acquire(key(1), mk(1));
    auto a1 = c.acquire(key(2), mk(2));
    auto a2 = c.acquire(key(1), mk(1));
    EXPECT_EQ(a0.seq, 0u);
    EXPECT_FALSE(a0.hit);
    EXPECT_EQ(a1.seq, 1u);
    EXPECT_FALSE(a1.hit);
    EXPECT_EQ(a2.seq, 2u);
    EXPECT_TRUE(a2.hit);
    EXPECT_EQ(a2.value, a0.value);
}

// ---- content addressing ---------------------------------------------

TEST(ServeHash, CacheAddressEqualsManifestHashes)
{
    apps::AppInstance inst =
        apps::makeInnerProduct(apps::Scale::kTiny);
    ArchParams params;
    // The serve cache address and the run-manifest identity are the
    // same bytes: a manifest names exactly the cache entry that served
    // its job.
    Runner r(inst.prog, params, SimOptions{});
    inst.load(r);
    Runner::Result res;
    Status st = r.tryRun(res);
    ASSERT_TRUE(st.ok()) << st.message();
    RunManifest m = r.buildManifest(res, st);
    EXPECT_EQ(hashProgram(inst.prog), m.pirHash);
    EXPECT_EQ(hashArch(params), m.archHash);
    EXPECT_EQ(hashProgram(inst.prog),
              fnv1a64(pir::programToText(inst.prog)));
}

TEST(ServeHash, DistinctArchParamsNeverCollide)
{
    // Every parameter that archParamsText serializes must perturb the
    // hash: two different fabrics must never share a config-cache
    // entry (a collision would hand one tenant a config compiled for
    // another tenant's machine).
    std::vector<ArchParams> variants;
    variants.push_back(ArchParams::plasticineFinal());
    for (uint32_t c = 2; c <= 16; c += 2) {
        ArchParams p;
        p.gridCols = c;
        variants.push_back(p);
    }
    for (uint32_t rws = 2; rws <= 8; rws += 2) {
        ArchParams p;
        p.gridRows = rws;
        variants.push_back(p);
    }
    {
        ArchParams p;
        p.numAgs = 17;
        variants.push_back(p);
        p = ArchParams();
        p.vectorTracks = 2;
        variants.push_back(p);
        p = ArchParams();
        p.scalarTracks = 4;
        variants.push_back(p);
        p = ArchParams();
        p.controlTracks = 16;
        variants.push_back(p);
    }
    std::set<uint64_t> hashes;
    std::set<std::string> texts;
    for (const ArchParams &p : variants) {
        hashes.insert(hashArch(p));
        texts.insert(archParamsText(p));
    }
    // All texts are distinct by construction (gridRows=8 etc. equal the
    // default — dedupe via the text set first).
    EXPECT_EQ(hashes.size(), texts.size());
    EXPECT_GT(texts.size(), 10u);
}

TEST(ServeHash, OptionsHashSeparatesBudgetAndValidate)
{
    ServeOptions o;
    uint64_t base = hashOptions(o, 0);
    EXPECT_EQ(base, hashOptions(o, o.maxCycles))
        << "job budget 0 means the server default";
    EXPECT_NE(base, hashOptions(o, o.maxCycles + 1));
    ServeOptions v = o;
    v.validate = true;
    EXPECT_NE(base, hashOptions(v, 0));
    // Each engine hashes as its scheduler and datapath names: recorded
    // job logs and result-cache keys carry these exact values.
    EXPECT_EQ(base, 0x85e3b24d73aed7a6ull);
    ServeOptions d = o;
    d.simOpts.engine = Engine::kOracle;
    EXPECT_EQ(hashOptions(d, 0), 0x90e90300bb363341ull);
}

TEST(ServeHash, InputsHashCoversEveryWord)
{
    std::map<pir::MemId, std::vector<Word>> a, b;
    a[0] = {1, 2, 3};
    b = a;
    EXPECT_EQ(hashInputs(a), hashInputs(b));
    b[0][2] = 4;
    EXPECT_NE(hashInputs(a), hashInputs(b));
    b = a;
    b[1] = {};
    EXPECT_NE(hashInputs(a), hashInputs(b))
        << "an extra (even empty) buffer is a different image";
}

// ---- the stress battery ---------------------------------------------

namespace
{

/** One job, fresh Runner, no caches — the serial reference. */
JobOutcome
runSerialBaseline(const JobSpec &spec, const ServeOptions &opts)
{
    Runner r(spec.prog, spec.params, opts.simOpts);
    if (spec.load)
        spec.load(r);
    else
        fuzz::fillInputs(r, spec.prog);
    JobOutcome b;
    Status st =
        r.tryRun(b, spec.maxCycles ? spec.maxCycles : opts.maxCycles);
    r.readBack(b);
    b.outcome = statusCodeName(st.code());
    return b;
}

void
expectMatchesBaseline(const JobResult &r, const JobOutcome &b)
{
    ASSERT_NE(r.outcome, nullptr) << r.source;
    EXPECT_EQ(r.outcome->outcome, b.outcome) << r.source;
    EXPECT_EQ(r.outcome->cycles, b.cycles) << r.source;
    EXPECT_EQ(r.outcome->argOuts, b.argOuts) << r.source;
    EXPECT_EQ(r.outcome->dram, b.dram) << r.source;
}

} // namespace

TEST(ServeStress, WorkersMatchSerialBaselineWithResultCache)
{
    TrafficOptions t;
    t.seed = 7;
    t.uniques = 6;
    t.jobs = 30;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    o.workers = 4;
    std::map<std::string, JobOutcome> baselines;
    for (size_t u = 0; u < t.uniques; ++u)
        baselines[specs[u].source] = runSerialBaseline(specs[u], o);

    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        ASSERT_NE(server.submit(std::move(s)), 0u);
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), t.jobs);
    for (const JobResult &r : results)
        expectMatchesBaseline(r, baselines.at(r.source));

    // Duplicate traffic must have been served from cache: exactly one
    // miss per unique identity (single-flight waiters count as hits).
    CacheStats rs = server.resultCacheStats();
    EXPECT_EQ(rs.misses, t.uniques);
    EXPECT_EQ(rs.hits, t.jobs - t.uniques);
    EXPECT_EQ(server.configCacheStats().misses, t.uniques);
}

TEST(ServeStress, WorkersMatchSerialBaselineWhenEveryJobExecutes)
{
    // resultCache off: every duplicate actually re-simulates on a
    // worker thread; bit-identical outputs now prove concurrent
    // execution (not memoization) is deterministic. Architectural
    // counters must match too.
    TrafficOptions t;
    t.seed = 11;
    t.uniques = 5;
    t.jobs = 20;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    o.workers = 4;
    o.resultCache = false;
    std::map<std::string, JobOutcome> baselines;
    for (size_t u = 0; u < t.uniques; ++u)
        baselines[specs[u].source] = runSerialBaseline(specs[u], o);

    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        ASSERT_NE(server.submit(std::move(s)), 0u);
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), t.jobs);
    for (const JobResult &r : results) {
        const JobOutcome &b = baselines.at(r.source);
        expectMatchesBaseline(r, b);
        EXPECT_FALSE(r.resultHit);
        EXPECT_EQ(r.outcome->stats.all(), b.stats.all()) << r.source;
    }
    // The config cache still collapses compilation: one compile per
    // unique program, every other job adopts the frozen config.
    CacheStats cs = server.configCacheStats();
    EXPECT_EQ(cs.misses, t.uniques);
    EXPECT_EQ(cs.hits, t.jobs - t.uniques);
}

TEST(ServeStress, DistinctBudgetHitsConfigCacheMissesResultCache)
{
    apps::AppInstance inst =
        apps::makeInnerProduct(apps::Scale::kTiny);
    ServeOptions o;
    Server server(o);

    JobSpec j1;
    j1.source = "a";
    j1.prog = inst.prog;
    j1.load = inst.load;
    j1.maxCycles = 1'000'000'000ull;
    JobSpec j2 = j1;
    j2.source = "b";
    j2.maxCycles = 1'000'000'001ull; // same semantics, distinct hash

    JobResult r1 = server.executeJob(j1);
    JobResult r2 = server.executeJob(j2);
    EXPECT_FALSE(r1.configHit);
    EXPECT_FALSE(r1.resultHit);
    EXPECT_TRUE(r2.configHit) << "same program+arch must not recompile";
    EXPECT_FALSE(r2.resultHit) << "different budget is a different job";
    ASSERT_NE(r1.outcome, nullptr);
    ASSERT_NE(r2.outcome, nullptr);
    EXPECT_EQ(r1.outcome->resultHash, r2.outcome->resultHash)
        << "ample budgets must not change the outcome";
    EXPECT_NE(r1.optionsHash, r2.optionsHash);
}

TEST(ServeStress, FailedCompilesAreNegativelyCached)
{
    // Find an (app, undersized fabric) pair that cannot compile; the
    // second submission must be refused from cache with the identical
    // typed outcome, without paying place-and-route again.
    apps::AppInstance inst = apps::makeGemm(apps::Scale::kTiny);
    JobSpec bad;
    bad.source = "bad";
    bad.prog = inst.prog;
    bad.load = inst.load;
    bool found = false;
    for (uint32_t dim : {2u, 1u}) {
        ArchParams tight;
        tight.gridCols = dim;
        tight.gridRows = dim;
        tight.numAgs = 2;
        Runner probe(bad.prog, tight, SimOptions{});
        if (!probe.tryCompile().ok()) {
            bad.params = tight;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "GEMM compiled on a 1x1 fabric?";

    // resultCache off so the duplicate reaches the config cache (with
    // it on, a bit-identical failed job is simply a result-cache hit).
    ServeOptions o;
    o.resultCache = false;
    Server server(o);
    JobResult r1 = server.executeJob(bad);
    bad.source = "bad-again";
    JobResult r2 = server.executeJob(bad);
    ASSERT_NE(r1.outcome, nullptr);
    ASSERT_NE(r2.outcome, nullptr);
    EXPECT_NE(r1.outcome->outcome, "ok");
    EXPECT_FALSE(r1.configHit);
    EXPECT_TRUE(r2.configHit) << "failure was not negatively cached";
    EXPECT_EQ(r1.outcome->outcome, r2.outcome->outcome);
    EXPECT_EQ(r1.outcome->detail, r2.outcome->detail)
        << "cached failure must carry the original diagnosis";
    // Failures are jobs, not crashes: the server stays serviceable.
    apps::AppInstance ok = apps::makeInnerProduct(apps::Scale::kTiny);
    JobSpec good;
    good.source = "good";
    good.prog = ok.prog;
    good.load = ok.load;
    JobResult r3 = server.executeJob(good);
    ASSERT_NE(r3.outcome, nullptr);
    EXPECT_EQ(r3.outcome->outcome, "ok") << r3.outcome->detail;
}

TEST(ServeStress, ZeroDramChannelsIsATypedCompileError)
{
    // A wire job whose params lines have no DRAM channel used to take
    // the daemon down with a divide by zero; it is a typed outcome.
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    JobSpec spec;
    spec.source = "no-channels";
    spec.prog = inst.prog;
    spec.load = inst.load;
    spec.params.dram.channels = 0;
    Server server(ServeOptions{});
    JobResult r = server.executeJob(spec);
    ASSERT_NE(r.outcome, nullptr);
    EXPECT_EQ(r.outcome->outcome, "compile-error");
    EXPECT_NE(r.outcome->detail.find("dram.channels"), std::string::npos)
        << r.outcome->detail;
}

TEST(ServeStress, EvictionUnderTinyCapacityStaysCorrect)
{
    TrafficOptions t;
    t.seed = 3;
    t.uniques = 4;
    t.jobs = 16;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    o.workers = 2;
    o.configCacheCapacity = 2;
    o.resultCacheCapacity = 2;
    std::map<std::string, JobOutcome> baselines;
    for (size_t u = 0; u < t.uniques; ++u)
        baselines[specs[u].source] = runSerialBaseline(specs[u], o);

    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        server.submit(std::move(s));
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), t.jobs);
    for (const JobResult &r : results)
        expectMatchesBaseline(r, baselines.at(r.source));
    EXPECT_GT(server.resultCacheStats().evictions, 0u)
        << "4 uniques through capacity 2 must evict";
    EXPECT_LE(server.resultCacheStats().size,
              o.resultCacheCapacity + o.workers)
        << "steady-state size must respect capacity (+ pinned)";
}

TEST(ServeStress, CommittedCorpusMatchesSerialBaselineAcrossWorkers)
{
    // The literal multi-tenant scenario: every committed .pir seed
    // (clean, fault-injected, oversize) submitted three times across
    // the worker pool. Fault-injection lines are a fuzzer concern the
    // daemon ignores, so injected seeds run clean here — the contract
    // is only that every copy is bit-identical to the serial
    // single-Runner baseline, whatever its typed outcome.
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(PLAST_CORPUS_DIR))
        if (e.path().extension() == ".pir")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty()) << "no corpus under " PLAST_CORPUS_DIR;

    std::vector<JobSpec> uniques;
    for (const std::string &f : files) {
        std::ifstream is(f);
        fuzz::FuzzCase c;
        std::string err;
        ASSERT_TRUE(fuzz::readSeedFile(is, c, &err)) << f << ": " << err;
        JobSpec s;
        s.source = "file:" + fs::path(f).filename().string();
        s.prog = std::move(c.prog);
        s.params = c.params;
        uniques.push_back(std::move(s));
    }

    ServeOptions o;
    o.workers = 4;
    std::map<std::string, JobOutcome> baselines;
    for (const JobSpec &s : uniques)
        baselines[s.source] = runSerialBaseline(s, o);

    std::vector<JobSpec> specs;
    for (int rep = 0; rep < 3; ++rep)
        for (const JobSpec &s : uniques)
            specs.push_back(s);

    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        ASSERT_NE(server.submit(std::move(s)), 0u);
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), uniques.size() * 3);
    for (const JobResult &r : results)
        expectMatchesBaseline(r, baselines.at(r.source));

    // Duplicates must be served from cache. Seeds that differ only in
    // their inject line share a content address, so count identities
    // by key tuple rather than by file.
    std::set<std::array<uint64_t, 4>> ids;
    for (const JobResult &r : results)
        ids.insert({r.pirHash, r.archHash, r.inputsHash, r.optionsHash});
    CacheStats rs = server.resultCacheStats();
    EXPECT_EQ(rs.misses, ids.size());
    EXPECT_EQ(rs.hits, results.size() - ids.size());
}

// ---- shared-profiler regression -------------------------------------

TEST(ServeProfiler, OverlappingRunnersProduceWellFormedMergedTrace)
{
    HostProfiler &prof = HostProfiler::instance();
    prof.clear();
    prof.setEnabled(true);

    std::atomic<uint32_t> tidA{0}, tidB{0};
    auto runOne = [](std::atomic<uint32_t> &tidOut) {
        tidOut = HostProfiler::currentTid();
        apps::AppInstance inst =
            apps::makeInnerProduct(apps::Scale::kTiny);
        Runner r(inst.prog, ArchParams{}, SimOptions{});
        inst.load(r);
        Runner::Result res;
        Status st = r.tryRun(res);
        ASSERT_TRUE(st.ok()) << st.message();
        // The per-job manifest must see only this thread's phases.
        RunManifest m = r.buildManifest(res, st);
        EXPECT_TRUE(m.timingsUs.count("host.compile"));
    };
    std::thread a([&] { runOne(tidA); });
    std::thread b([&] { runOne(tidB); });
    a.join();
    b.join();
    ASSERT_NE(tidA.load(), tidB.load());

    // Every span carries its recording thread; both threads are
    // present; per-thread windowed totals partition the global totals.
    std::set<uint32_t> tids;
    for (const HostProfiler::Span &s : prof.spans())
        tids.insert(s.tid);
    EXPECT_TRUE(tids.count(tidA.load()));
    EXPECT_TRUE(tids.count(tidB.load()));

    auto total = prof.totalsUs();
    auto ta = prof.totalsUs(tidA.load(), 0);
    auto tb = prof.totalsUs(tidB.load(), 0);
    ASSERT_TRUE(total.count("host.compile"));
    EXPECT_TRUE(ta.count("host.compile"));
    EXPECT_TRUE(tb.count("host.compile"));
    EXPECT_EQ(ta["host.compile"] + tb["host.compile"],
              total["host.compile"])
        << "thread windows must partition the shared timeline";

    // The merged Perfetto fragment stays well-formed: one named track
    // per thread, balanced braces, a tid on every span.
    std::ostringstream os;
    writeHostSpansJson(os, prof);
    std::string json = os.str();
    EXPECT_NE(json.find("host phases (thread " +
                        std::to_string(tidA.load()) + ")"),
              std::string::npos);
    EXPECT_NE(json.find("host phases (thread " +
                        std::to_string(tidB.load()) + ")"),
              std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    size_t spanEvents = 0, tidFields = 0;
    for (size_t p = 0; (p = json.find("\"ph\":\"X\"", p)) !=
                       std::string::npos;
         ++p)
        ++spanEvents;
    for (size_t p = 0;
         (p = json.find("\"tid\":", p)) != std::string::npos; ++p)
        ++tidFields;
    EXPECT_EQ(spanEvents, prof.spans().size());
    EXPECT_GE(tidFields, spanEvents)
        << "every complete event names its thread track";

    prof.clear();
}

// ---- job log + deterministic replay ---------------------------------

TEST(ServeJoblog, RoundTripsEveryFieldIncludingSpacedSources)
{
    auto out = std::make_shared<JobOutcome>();
    out->outcome = "ok";
    out->cycles = 1234;
    out->resultHash = 0xdeadbeefcafef00dull;
    JobResult r;
    r.id = 7;
    r.seq = 3;
    r.worker = 2;
    r.pirHash = 0x1111;
    r.archHash = 0x2222;
    r.inputsHash = 0x3333;
    r.optionsHash = 0x4444;
    r.configHit = true;
    r.resultHit = false;
    r.source = "app:TPC-H Query 6/v0"; // spaces are legal in sources
    r.outcome = out;

    std::stringstream ss;
    writeJobLog(ss, {r});
    std::vector<JobLogEntry> log;
    std::string err;
    ASSERT_TRUE(readJobLog(ss, log, &err)) << err;
    ASSERT_EQ(log.size(), 1u);
    const JobLogEntry &e = log[0];
    EXPECT_EQ(e.id, 7u);
    EXPECT_EQ(e.seq, 3u);
    EXPECT_EQ(e.worker, 2u);
    EXPECT_EQ(e.pirHash, 0x1111u);
    EXPECT_EQ(e.archHash, 0x2222u);
    EXPECT_EQ(e.inputsHash, 0x3333u);
    EXPECT_EQ(e.optionsHash, 0x4444u);
    EXPECT_TRUE(e.configHit);
    EXPECT_FALSE(e.resultHit);
    EXPECT_EQ(e.resultHash, 0xdeadbeefcafef00dull);
    EXPECT_EQ(e.cycles, 1234u);
    EXPECT_EQ(e.outcome, "ok");
    EXPECT_EQ(e.source, "app:TPC-H Query 6/v0");
}

TEST(ServeJoblog, RejectsMalformedLogs)
{
    std::vector<JobLogEntry> log;
    std::string err;
    std::istringstream noHeader("job id=1 src=x\n");
    EXPECT_FALSE(readJobLog(noHeader, log, &err));
    // Every line carries the writer's 15 keys once each, in its order:
    // an unknown key, a repeated key or a short line is corrupt.
    std::istringstream badKey(
        "plast.joblog.v2\njob id=1 wat=2 src=x\n");
    EXPECT_FALSE(readJobLog(badKey, log, &err));
    EXPECT_NE(err.find("expected 'seq=', got 'wat=2'"), std::string::npos)
        << err;
    std::istringstream noSrc("plast.joblog.v2\njob id=1 seq=0\n");
    EXPECT_FALSE(readJobLog(noSrc, log, &err));
    EXPECT_NE(err.find("line 2: seq: unexpected end of input"),
              std::string::npos)
        << err;
    std::istringstream v1("plast.joblog.v1\njob id=1 seq=0 src=x\n");
    EXPECT_FALSE(readJobLog(v1, log, &err));
    EXPECT_NE(err.find("header"), std::string::npos) << err;

    std::istringstream fewKeys("plast.joblog.v2\njob id=5 src=app:GEMM\n");
    EXPECT_FALSE(readJobLog(fewKeys, log, &err));
    EXPECT_NE(err.find("expected 'seq=', got 'src=app:GEMM'"),
              std::string::npos)
        << err;
    std::istringstream twice(
        "plast.joblog.v2\njob id=5 id=6 seq=1 chit=7 rhit=yes src=x\n");
    EXPECT_FALSE(readJobLog(twice, log, &err));
    EXPECT_NE(err.find("expected 'seq=', got 'id=6'"), std::string::npos)
        << err;
    std::istringstream signedSeq(
        "plast.joblog.v2\njob id=5 seq=-1 worker=99999999999 src=x\n");
    EXPECT_FALSE(readJobLog(signedSeq, log, &err));
    EXPECT_NE(err.find("seq: bad number '-1'"), std::string::npos) << err;
    EXPECT_TRUE(log.empty());

    // One field at a time on a line the writer wrote: flags are 0/1
    // and numbers unsigned and inside their field.
    JobResult r;
    r.id = 5;
    r.seq = 1;
    r.source = "app:GEMM/v0";
    std::ostringstream good;
    writeJobLogHeader(good);
    writeJobLogLine(good, r);
    std::istringstream goodIs(good.str());
    ASSERT_TRUE(readJobLog(goodIs, log, &err)) << err;
    for (auto [from, to] :
         {std::pair{"seq=1 ", "seq=-1 "}, {"worker=0 ", "worker=99999999999 "},
          {"chit=0 ", "chit=7 "}, {"rhit=0 ", "rhit=yes "},
          {"exe=1 ", "exe=2 "}, {"retries=0 ", "retries=+1 "}}) {
        std::string text = good.str();
        size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        text.replace(at, std::strlen(from), to);
        std::istringstream is(text);
        std::vector<JobLogEntry> out;
        EXPECT_FALSE(readJobLog(is, out, &err)) << to;
        EXPECT_NE(err.find("bad number"), std::string::npos) << err;
    }
}

TEST(ServeJoblog, TornFinalLineIsDroppedWithWarningNotError)
{
    // What a SIGKILLed --joblog-sync daemon leaves behind: complete
    // newline-terminated records, then at most one torn tail. The
    // prefix must parse; the tail must be dropped with a warning —
    // even when the cut happens to land where the line still parses
    // (src= is free-form, so a truncated source "parses" too).
    JobResult a, b;
    a.id = 1;
    a.seq = 1;
    a.source = "app:one";
    b.id = 2;
    b.seq = 2;
    b.source = "app:two with spaces";
    std::stringstream full;
    writeJobLogHeader(full);
    writeJobLogLine(full, a);
    writeJobLogLine(full, b);
    std::string text = full.str();

    // Every possible kill point inside the final record: cut the last
    // line at each byte (including mid-src and "parses anyway" cuts).
    size_t lastLineStart = text.rfind("job id=2");
    ASSERT_NE(lastLineStart, std::string::npos);
    for (size_t cut = lastLineStart + 1; cut < text.size(); ++cut) {
        std::istringstream torn(text.substr(0, cut));
        std::vector<JobLogEntry> log;
        std::string err, warn;
        ASSERT_TRUE(readJobLog(torn, log, &err, &warn))
            << "cut=" << cut << ": " << err;
        ASSERT_EQ(log.size(), 1u) << "cut=" << cut;
        EXPECT_EQ(log[0].id, 1u);
        EXPECT_FALSE(warn.empty()) << "cut=" << cut;
    }

    // The complete log still parses with no warning.
    std::istringstream clean(text);
    std::vector<JobLogEntry> log;
    std::string err, warn;
    ASSERT_TRUE(readJobLog(clean, log, &err, &warn)) << err;
    EXPECT_EQ(log.size(), 2u);
    EXPECT_TRUE(warn.empty()) << warn;
    EXPECT_EQ(log[1].source, "app:two with spaces");

    // A torn *first* record right after the header: zero entries,
    // still not an error.
    std::stringstream h;
    writeJobLogHeader(h);
    std::string headerOnly = h.str();
    std::istringstream tornFirst(headerOnly + "job id=9 se");
    log.clear();
    warn.clear();
    ASSERT_TRUE(readJobLog(tornFirst, log, &err, &warn)) << err;
    EXPECT_TRUE(log.empty());
    EXPECT_FALSE(warn.empty());
}

TEST(ServeReplay, ConcurrentRunReplaysSeriallyBitForBit)
{
    TrafficOptions t;
    t.seed = 21;
    t.uniques = 5;
    t.jobs = 20;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    o.workers = 4;
    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        server.submit(std::move(s));
    server.drain();

    std::stringstream ss;
    writeJobLog(ss, server.results());
    std::vector<JobLogEntry> log;
    std::string err;
    ASSERT_TRUE(readJobLog(ss, log, &err)) << err;
    ASSERT_EQ(log.size(), t.jobs);

    // Regenerate the identical traffic (seeded) and replay serially:
    // every outcome, result hash and result-cache hit flag must
    // reproduce — the concurrent run was deterministic.
    std::vector<JobSpec> fresh = makeTraffic(t);
    ReplayReport rep = replayLog(log, fresh, o);
    EXPECT_EQ(rep.jobs, t.jobs);
    EXPECT_TRUE(rep.ok());
    for (const ReplayMismatch &m : rep.mismatches)
        ADD_FAILURE() << "job " << m.id << " " << m.field
                      << ": logged " << m.logged << " replayed "
                      << m.replayed;
    EXPECT_EQ(rep.resultHits, t.jobs - t.uniques);
}

TEST(ServeReplay, SingleWorkerLogReplaysWithStrictConfigHits)
{
    TrafficOptions t;
    t.seed = 4;
    t.uniques = 4;
    t.jobs = 12;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    o.workers = 1;
    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        server.submit(std::move(s));
    server.drain();

    std::stringstream ss;
    writeJobLog(ss, server.results());
    std::vector<JobLogEntry> log;
    std::string err;
    ASSERT_TRUE(readJobLog(ss, log, &err)) << err;

    std::vector<JobSpec> fresh = makeTraffic(t);
    ReplayReport rep = replayLog(log, fresh, o,
                                 /*checkConfigHits=*/true);
    EXPECT_TRUE(rep.ok());
    for (const ReplayMismatch &m : rep.mismatches)
        ADD_FAILURE() << "job " << m.id << " " << m.field
                      << ": logged " << m.logged << " replayed "
                      << m.replayed;
}

TEST(ServeReplay, DetectsTamperedLogs)
{
    TrafficOptions t;
    t.seed = 5;
    t.uniques = 3;
    t.jobs = 6;
    std::vector<JobSpec> specs = makeTraffic(t);
    ServeOptions o;
    o.workers = 2;
    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        server.submit(std::move(s));
    server.drain();

    std::stringstream ss;
    writeJobLog(ss, server.results());
    std::vector<JobLogEntry> log;
    std::string err;
    ASSERT_TRUE(readJobLog(ss, log, &err)) << err;
    log.back().resultHash ^= 1; // a single flipped bit must surface
    ReplayReport rep = replayLog(log, makeTraffic(t), o);
    EXPECT_FALSE(rep.ok());
}

// ---- daemon lifecycle -----------------------------------------------

TEST(ServeServer, SubmitAfterDrainIsRefused)
{
    ServeOptions o;
    o.workers = 1;
    Server server(o);
    server.start();
    server.drain();
    apps::AppInstance inst =
        apps::makeInnerProduct(apps::Scale::kTiny);
    JobSpec spec;
    spec.source = "late";
    spec.prog = inst.prog;
    spec.load = inst.load;
    EXPECT_EQ(server.submit(std::move(spec)), 0u);
    EXPECT_TRUE(server.results().empty());
}

TEST(ServeServer, ExportsServeMetricsNamespace)
{
    TrafficOptions t;
    t.uniques = 2;
    t.jobs = 6;
    std::vector<JobSpec> specs = makeTraffic(t);
    ServeOptions o;
    o.workers = 2;
    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        server.submit(std::move(s));
    server.drain();

    StatSet reg;
    server.exportMetrics(reg);
    EXPECT_EQ(reg.get("serve.jobs.completed"), t.jobs);
    EXPECT_EQ(reg.get("serve.jobs.submitted"), t.jobs);
    EXPECT_EQ(reg.get("serve.workers"), 2u);
    EXPECT_EQ(reg.get("serve.cache.result.hits"), t.jobs - t.uniques);
    EXPECT_EQ(reg.get("serve.outcome.ok"), t.jobs);
    const Histogram *h = reg.findHistogram("serve.job.exec_us");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), t.jobs);
}

// ---- robustness: queue edge races -----------------------------------

TEST(ServeQueue, TryPushTimesOutWhenFullThenSucceeds)
{
    BoundedQueue<int> q(1);
    EXPECT_EQ(q.tryPush(1, 0), PushResult::kOk);
    EXPECT_EQ(q.tryPush(2, 1'000), PushResult::kTimedOut);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.tryPush(3, 0), PushResult::kOk);
    q.close();
    EXPECT_EQ(q.tryPush(4, 0), PushResult::kClosed);
    EXPECT_EQ(q.pop().value(), 3); // close still drains
    EXPECT_EQ(q.pushed(), 2u);
}

TEST(ServeQueue, DrainWakesProducersBlockedOnFullQueue)
{
    BoundedQueue<int> q(2);
    ASSERT_TRUE(q.push(0));
    ASSERT_TRUE(q.push(1));
    constexpr int kProducers = 4;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            ASSERT_TRUE(q.push(100 + p)); // blocks: queue is full
        });
    }
    // drain() empties the queue and wakes every blocked producer; the
    // late pushes then proceed (two immediately, two as pops free
    // room) — nobody stays parked forever and nothing is lost.
    std::multiset<int> got;
    for (int v : q.drain())
        got.insert(v);
    EXPECT_EQ(got, (std::multiset<int>{0, 1}));
    std::multiset<int> late;
    for (int i = 0; i < kProducers; ++i)
        late.insert(q.pop().value());
    for (std::thread &t : producers)
        t.join();
    EXPECT_EQ(late, (std::multiset<int>{100, 101, 102, 103}));
    EXPECT_EQ(q.pushed(), 2u + kProducers);
}

TEST(ServeQueue, CloseConcurrentWithTryPushNeverLosesItems)
{
    // Hammer tryPush from several producers while close() lands in
    // the middle: every push either enqueued (kOk) or was refused
    // typed — and exactly the kOk items come out of pop().
    BoundedQueue<int> q(4);
    constexpr int kProducers = 4, kPerProducer = 64;
    std::atomic<int> accepted{0};
    std::atomic<int> drained{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                PushResult pr = q.tryPush(p * kPerProducer + i, 100);
                if (pr == PushResult::kOk)
                    accepted.fetch_add(1);
                else if (pr == PushResult::kClosed)
                    return;
            }
        });
    }
    std::thread consumer([&] {
        while (q.pop().has_value())
            drained.fetch_add(1); // empty optional: closed AND drained
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    q.close();
    for (std::thread &t : producers)
        t.join();
    consumer.join();
    EXPECT_EQ(drained.load(), accepted.load())
        << "every kOk item must come out exactly once";
    EXPECT_EQ(q.pushed(), static_cast<uint64_t>(accepted.load()));
}

// ---- robustness: cache abandonment + handoff ------------------------

TEST(ServeCache, AbandonedEntryWithoutWaitersIsErased)
{
    SingleFlightCache<int> cache(4);
    CacheKey k{1, 2, 3, 4};
    auto a1 = cache.acquire(k, [] { return nullptr; });
    EXPECT_FALSE(a1.hit);
    EXPECT_EQ(a1.value, nullptr);
    EXPECT_EQ(cache.stats().abandoned, 1u);
    EXPECT_EQ(cache.stats().size, 0u) << "abandoned placeholder leaked";
    // The key is rebuildable: the next acquire is a fresh miss.
    auto a2 =
        cache.acquire(k, [] { return std::make_shared<const int>(7); });
    EXPECT_FALSE(a2.hit);
    ASSERT_NE(a2.value, nullptr);
    EXPECT_EQ(*a2.value, 7);
    auto a3 = cache.acquire(k, [] {
        ADD_FAILURE() << "ready entry must not rebuild";
        return nullptr;
    });
    EXPECT_TRUE(a3.hit);
}

TEST(ServeCache, CancelledLeaderHandsOffToWaitingFollower)
{
    SingleFlightCache<int> cache(4);
    CacheKey k{9, 9, 9, 9};
    std::mutex mu;
    std::condition_variable cv;
    bool leaderBuilding = false;
    bool followerEngaged = false;
    std::atomic<int> built{0};

    std::thread leader([&] {
        auto a = cache.acquire(k, [&]() -> std::shared_ptr<const int> {
            // The leader owns the single-flight slot from here on. Hold
            // it until the follower is (very likely) parked on the
            // pending entry, then abandon.
            std::unique_lock<std::mutex> lk(mu);
            leaderBuilding = true;
            cv.notify_all();
            cv.wait(lk, [&] { return followerEngaged; });
            lk.unlock();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return nullptr; // cancelled: never publish
        });
        EXPECT_EQ(a.value, nullptr);
        EXPECT_FALSE(a.hit);
    });
    std::thread follower([&] {
        {
            // Only a follower that arrives after the leader claimed the
            // slot can be handed it; otherwise it would build first.
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return leaderBuilding; });
            followerEngaged = true;
        }
        cv.notify_all();
        auto a = cache.acquire(k, [&] {
            built.fetch_add(1);
            return std::make_shared<const int>(42);
        });
        // Whether it waited on the leader (hit) or found the erased
        // placeholder (miss) is timing; the value must be its own.
        ASSERT_NE(a.value, nullptr);
        EXPECT_EQ(*a.value, 42);
    });
    leader.join();
    follower.join();
    EXPECT_EQ(built.load(), 1);
    EXPECT_EQ(cache.stats().abandoned, 1u);
    // The follower's build was published under the key.
    auto after = cache.acquire(k, [] {
        ADD_FAILURE() << "published value must be served";
        return nullptr;
    });
    EXPECT_TRUE(after.hit);
    ASSERT_NE(after.value, nullptr);
    EXPECT_EQ(*after.value, 42);
}

TEST(ServeCache, FollowerWithFiredTokenGivesUpWaiting)
{
    SingleFlightCache<int> cache(4);
    CacheKey k{5, 5, 5, 5};
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;

    std::thread leader([&] {
        cache.acquire(k, [&]() -> std::shared_ptr<const int> {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return release; });
            return std::make_shared<const int>(1);
        });
    });
    // Give the leader time to claim the build slot.
    while (cache.stats().misses == 0)
        std::this_thread::yield();
    CancelToken tok;
    tok.requestCancel();
    auto a = cache.acquire(
        k,
        [&] {
            ADD_FAILURE() << "a gave-up follower must not build";
            return nullptr;
        },
        &tok);
    EXPECT_TRUE(a.gaveUp);
    EXPECT_EQ(a.value, nullptr);
    {
        std::lock_guard<std::mutex> lk(mu);
        release = true;
    }
    cv.notify_all();
    leader.join();
    // The leader's publish was unaffected by the deserter.
    auto after = cache.acquire(k, [] { return nullptr; });
    EXPECT_TRUE(after.hit);
    ASSERT_NE(after.value, nullptr);
    EXPECT_EQ(*after.value, 1);
}

// ---- robustness: deadlines + cancellation ---------------------------

namespace
{

JobSpec
tinyAppSpec(const char *source)
{
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    JobSpec spec;
    spec.source = source;
    spec.prog = inst.prog;
    spec.load = inst.load;
    return spec;
}

} // namespace

TEST(ServeCancel, PreCancelledTokenAbortsTypedBeforeFirstCycle)
{
    JobSpec spec = tinyAppSpec("pre-cancelled");
    Runner runner(spec.prog, spec.params);
    spec.load(runner);
    CancelToken tok;
    tok.requestCancel();
    runner.setCancelToken(&tok);
    Runner::Result res;
    Status st = runner.tryRun(res);
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    EXPECT_EQ(res.cycles, 0u) << "cancel must beat the first cycle";
}

TEST(ServeCancel, ExpiredDeadlineTokenAbortsTyped)
{
    JobSpec spec = tinyAppSpec("expired");
    Runner runner(spec.prog, spec.params);
    spec.load(runner);
    CancelToken tok;
    tok.setDeadlineUs(1); // epoch + 1us: long past
    runner.setCancelToken(&tok);
    Runner::Result res;
    Status st = runner.tryRun(res);
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(ServeCancel, CancelledJobNeverPoisonsTheResultCache)
{
    // A cancelled leader abandons its single-flight build; the same
    // key resubmitted healthy must produce the full correct outcome.
    ServeOptions o;
    Server server(o);
    JobSpec spec = tinyAppSpec("victim");
    JobOutcome base = runSerialBaseline(spec, o);

    CancelToken tok;
    tok.requestCancel();
    JobResult r1 = server.executeJob(spec, 0, &tok);
    ASSERT_NE(r1.outcome, nullptr);
    EXPECT_EQ(r1.outcome->outcome, "cancelled");
    EXPECT_FALSE(r1.resultHit);
    EXPECT_EQ(server.resultCacheStats().abandoned, 1u);

    JobResult r2 = server.executeJob(spec);
    expectMatchesBaseline(r2, base);
    EXPECT_FALSE(r2.resultHit)
        << "the abandoned build must not have been published";
    JobResult r3 = server.executeJob(spec);
    EXPECT_TRUE(r3.resultHit) << "healthy rebuild must be cached";
    expectMatchesBaseline(r3, base);
}

TEST(ServeCancel, CancelQueuedJobProducesTypedRecordAndCounters)
{
    ServeOptions o;
    o.workers = 1;
    Server server(o); // not started: jobs stay queued
    JobSpec healthy = tinyAppSpec("healthy");
    JobOutcome base = runSerialBaseline(healthy, o);
    uint64_t id1 = server.submit(std::move(healthy));
    uint64_t id2 = server.submit(tinyAppSpec("doomed"));
    ASSERT_NE(id1, 0u);
    ASSERT_NE(id2, 0u);
    EXPECT_TRUE(server.cancelJob(id2));
    EXPECT_FALSE(server.cancelJob(9999));
    server.start();
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(results[0].id, id1);
    expectMatchesBaseline(results[0], base);
    EXPECT_TRUE(results[0].executed);
    ASSERT_NE(results[1].outcome, nullptr);
    EXPECT_EQ(results[1].outcome->outcome, "cancelled");
    EXPECT_FALSE(results[1].executed);
    EXPECT_FALSE(server.cancelJob(id2)) << "finished job still cancellable?";
    EXPECT_EQ(server.robustness().cancelled, 1u);
}

TEST(ServeDeadline, QueuedExpiryIsTypedAndHealthyJobsAreExact)
{
    ServeOptions o;
    o.workers = 2;
    Server server(o); // not started yet
    JobSpec healthy = tinyAppSpec("healthy");
    JobOutcome base = runSerialBaseline(healthy, o);

    JobSpec doomed = tinyAppSpec("doomed");
    doomed.deadlineMs = 1;
    uint64_t idDoomed = server.submit(std::move(doomed));
    uint64_t idHealthy = server.submit(std::move(healthy));
    ASSERT_NE(idDoomed, 0u);
    ASSERT_NE(idHealthy, 0u);
    // Let the 1ms budget die while the job is still queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.start();
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), 2u);
    const JobResult &rd = results[0].id == idDoomed ? results[0]
                                                    : results[1];
    const JobResult &rh = results[0].id == idDoomed ? results[1]
                                                    : results[0];
    ASSERT_NE(rd.outcome, nullptr);
    EXPECT_EQ(rd.outcome->outcome, "deadline-exceeded");
    EXPECT_FALSE(rd.executed);
    // The worker that skipped the dead job is alive and exact.
    expectMatchesBaseline(rh, base);
    EXPECT_EQ(server.robustness().deadlineMisses, 1u);
    StatSet reg;
    server.exportMetrics(reg);
    EXPECT_EQ(reg.get("serve.jobs.deadline_misses"), 1u);
    EXPECT_EQ(reg.get("serve.jobs.executed"), 1u);
}

// ---- robustness: admission control ----------------------------------

TEST(ServeShed, FullQueueShedsTypedInsteadOfBlocking)
{
    ServeOptions o;
    o.workers = 1;
    o.queueDepth = 1;
    o.submitWaitUs = 1'000; // 1ms bounded wait, then shed
    Server server(o);       // not started: the queue stays full
    uint64_t id1 = server.submit(tinyAppSpec("first"));
    uint64_t id2 = server.submit(tinyAppSpec("second"));
    uint64_t id3 = server.submit(tinyAppSpec("third"));
    ASSERT_NE(id1, 0u);
    ASSERT_NE(id2, 0u);
    ASSERT_NE(id3, 0u);

    std::vector<JobResult> early = server.results();
    ASSERT_EQ(early.size(), 2u) << "two typed shed records expected";
    for (const JobResult &r : early) {
        ASSERT_NE(r.outcome, nullptr);
        EXPECT_EQ(r.outcome->outcome, "shed");
        EXPECT_FALSE(r.executed);
        EXPECT_GE(r.seq, 1ull << 62) << "aux seq band expected";
    }
    EXPECT_EQ(server.robustness().shed, 2u);

    server.start();
    server.drain();
    std::vector<JobResult> all = server.results();
    ASSERT_EQ(all.size(), 3u);
    for (const JobResult &r : all) {
        ASSERT_NE(r.outcome, nullptr);
        EXPECT_EQ(r.outcome->outcome, r.id == id1 ? "ok" : "shed")
            << "job " << r.id;
    }
    StatSet reg;
    server.exportMetrics(reg);
    EXPECT_EQ(reg.get("serve.jobs.shed"), 2u);
    EXPECT_EQ(reg.get("serve.jobs.executed"), 1u);
}

TEST(ServeBreaker, OpensAfterRepeatedCompileFailuresThenProbes)
{
    // An uncompilable (program, arch) pair for the breaker tenant.
    apps::AppInstance inst = apps::makeGemm(apps::Scale::kTiny);
    JobSpec bad;
    bad.prog = inst.prog;
    bad.load = inst.load;
    bad.tenant = "noisy";
    bool found = false;
    for (uint32_t dim : {2u, 1u}) {
        ArchParams tight;
        tight.gridCols = dim;
        tight.gridRows = dim;
        tight.numAgs = 2;
        Runner probe(bad.prog, tight, SimOptions{});
        if (!probe.tryCompile().ok()) {
            bad.params = tight;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);

    ServeOptions o;
    o.workers = 1;
    o.resultCache = false;
    o.breakerThreshold = 2;
    Server server(o);
    server.start();
    auto submitAndWait = [&](JobSpec s, size_t expectTotal) {
        server.submit(std::move(s));
        while (server.results().size() < expectTotal)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    // bad-1 and bad-2 fail to compile and open the breaker; the next
    // kBreakerProbeEvery - 1 are fast-failed without execution, and
    // the kBreakerProbeEvery-th rejection candidate is admitted as a
    // probe.
    const uint32_t probe = 2 + Server::kBreakerProbeEvery;
    for (uint32_t i = 1; i <= probe; ++i) {
        bad.source = strfmt("bad-%u", i);
        submitAndWait(bad, i);
    }

    // An innocent tenant is never affected.
    JobSpec good = tinyAppSpec("good");
    good.tenant = "quiet";
    submitAndWait(std::move(good), probe + 1);
    server.drain();

    std::vector<JobResult> rs = server.results();
    ASSERT_EQ(rs.size(), probe + 1);
    auto outcomeOf = [&](const std::string &src) -> std::string {
        for (const JobResult &r : rs)
            if (r.source == src)
                return r.outcome ? r.outcome->outcome : "lost";
        return "<missing>";
    };
    EXPECT_EQ(outcomeOf("bad-1"), "compile-error");
    EXPECT_EQ(outcomeOf("bad-2"), "compile-error");
    for (uint32_t i = 3; i < probe; ++i)
        EXPECT_EQ(outcomeOf(strfmt("bad-%u", i)), "circuit-open") << i;
    EXPECT_EQ(outcomeOf(strfmt("bad-%u", probe)), "compile-error")
        << "every Nth submission must probe the breaker";
    EXPECT_EQ(outcomeOf("good"), "ok")
        << "breakers are per-tenant";
    EXPECT_EQ(server.robustness().circuitOpen,
              Server::kBreakerProbeEvery - 1);
}

// ---- robustness: faulted jobs under the recovery orchestrator -------

TEST(ServeRetry, TransientFaultsRetryCleanViaOneShotEvents)
{
    TrafficOptions t;
    t.seed = 11;
    t.uniques = 4;
    t.jobs = 8;
    t.faultEvery = 1; // every job faulted, distinct seeds
    t.faultRate = 20'000;
    t.includeHard = true;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    // The fault-free outcome of each identity (source minus "/f<seed>"):
    // a job served as ok or recovered must equal it bit for bit.
    std::map<std::string, JobOutcome> baselines;
    auto identity = [](const std::string &source) {
        return source.substr(0, source.rfind("/f"));
    };
    for (const JobSpec &s : specs) {
        ASSERT_NE(s.faultSeed, 0u);
        if (baselines.count(identity(s.source)) == 0)
            baselines[identity(s.source)] = runSerialBaseline(s, o);
    }

    Server server(o);
    uint32_t totalRetries = 0;
    std::map<std::string, int> byOutcome;
    for (JobSpec &s : specs) {
        JobResult r = server.executeJob(std::move(s));
        ASSERT_NE(r.outcome, nullptr);
        EXPECT_NE(r.outcome->outcome, "lost") << r.source;
        totalRetries += r.retries;
        ++byOutcome[r.outcome->outcome];
        if (r.outcome->outcome == "ok" ||
            r.outcome->outcome == "recovered") {
            const JobOutcome &b = baselines.at(identity(r.source));
            EXPECT_TRUE(r.outcome->argOuts == b.argOuts)
                << r.source << " served " << r.outcome->outcome
                << " with wrong argOuts";
            EXPECT_TRUE(r.outcome->dram == b.dram)
                << r.source << " served " << r.outcome->outcome
                << " with a wrong DRAM image";
        }
    }
    EXPECT_GT(totalRetries, 0u)
        << "hard faults at this rate must force a rollback, restart "
           "or remap";
    EXPECT_GT(byOutcome["recovered"], 0)
        << "a re-run after the one-shot fault fired must run clean";
    EXPECT_GT(byOutcome["silent-corruption"], 0)
        << "this traffic corrupts outputs; the golden check must say so";
}

TEST(ServeResilient, FaultedJobOnAConfigHitCompilesNothing)
{
    // The recovery orchestrator adopts the worker's compile for its
    // golden run and every unmasked attempt. Without hard faults there
    // is no degraded re-mapping, so a faulted job whose config is
    // already cached records no compile span at all.
    TrafficOptions t;
    t.uniques = 1;
    t.jobs = 2;
    t.faultEvery = 1;
    t.faultRate = 20'000;
    std::vector<JobSpec> specs = makeTraffic(t);
    ASSERT_EQ(specs.size(), 2u);

    Server server(ServeOptions{});
    HostProfiler &prof = HostProfiler::instance();
    prof.clear();
    auto compileSpans = [&](JobSpec spec, bool &configHit) {
        const uint64_t since = prof.nowUs();
        JobResult r = server.executeJob(std::move(spec));
        EXPECT_NE(r.outcome, nullptr);
        configHit = r.configHit;
        size_t n = 0;
        for (const HostProfiler::Span &sp : prof.spans()) {
            if (sp.tid == HostProfiler::currentTid() &&
                sp.beginUs >= since &&
                std::string(sp.name).find("compile") != std::string::npos)
                ++n;
        }
        return n;
    };
    bool hit = true;
    EXPECT_GT(compileSpans(specs[0], hit), 0u) << "the miss compiles";
    EXPECT_FALSE(hit);
    EXPECT_EQ(compileSpans(specs[1], hit), 0u);
    EXPECT_TRUE(hit);
}

TEST(ServeResilient, EveryJobFinishesTypedUnderFaultTraffic)
{
    TrafficOptions t;
    t.seed = 13;
    t.uniques = 4;
    t.jobs = 16;
    t.faultEvery = 2;
    t.faultRate = 20'000;
    t.includeHard = true;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    o.workers = 4;
    std::map<std::string, JobOutcome> baselines;
    for (const JobSpec &s : specs) {
        if (s.faultSeed == 0 && baselines.count(s.source) == 0)
            baselines[s.source] = runSerialBaseline(s, o);
    }

    Server server(o);
    server.start();
    for (JobSpec &s : specs)
        server.submit(std::move(s));
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), t.jobs);
    uint64_t tallyRetries = 0;
    for (const JobResult &r : results) {
        ASSERT_NE(r.outcome, nullptr) << r.source;
        EXPECT_NE(r.outcome->outcome, "lost") << r.source;
        tallyRetries += r.retries;
        if (baselines.count(r.source)) {
            // Unfaulted jobs next to faulted ones stay bit-exact.
            EXPECT_EQ(r.outcome->outcome, baselines[r.source].outcome)
                << r.source;
            EXPECT_EQ(r.outcome->argOuts, baselines[r.source].argOuts)
                << r.source;
            EXPECT_EQ(r.outcome->cycles, baselines[r.source].cycles)
                << r.source;
        } else {
            // Faulted jobs: typed terminal classification only.
            EXPECT_TRUE(r.outcome->outcome == "ok" ||
                        r.outcome->outcome == "recovered" ||
                        r.outcome->outcome == "silent-corruption" ||
                        r.outcome->outcome == "deadlock" ||
                        r.outcome->outcome == "uncorrectable" ||
                        r.outcome->outcome == "address-fault" ||
                        r.outcome->outcome == "max-cycles")
                << r.source << ": " << r.outcome->outcome;
        }
    }
    EXPECT_EQ(server.robustness().retries, tallyRetries)
        << "the retry counter must reconcile with the records";
}

// ---- robustness: job log v2 + replay accounting ---------------------

TEST(ServeJoblog, V2RoundTripsExecutedFlagAndRetries)
{
    JobResult shedded;
    shedded.id = 7;
    shedded.seq = (1ull << 62) + 1;
    shedded.source = "app:GEMM/v0";
    shedded.executed = false;
    auto so = std::make_shared<JobOutcome>();
    so->outcome = "shed";
    shedded.outcome = so;

    JobResult retried;
    retried.id = 8;
    retried.seq = 3;
    retried.source = "app:FFT/v0";
    retried.retries = 2;
    auto ro = std::make_shared<JobOutcome>();
    ro->outcome = "ok";
    ro->cycles = 1234;
    retried.outcome = ro;

    std::stringstream ss;
    writeJobLog(ss, {shedded, retried});
    std::vector<JobLogEntry> parsed;
    std::string err;
    ASSERT_TRUE(readJobLog(ss, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 2u);
    // seq order: the executed record first, aux band after.
    EXPECT_EQ(parsed[0].id, 8u);
    EXPECT_TRUE(parsed[0].executed);
    EXPECT_EQ(parsed[0].retries, 2u);
    EXPECT_EQ(parsed[1].id, 7u);
    EXPECT_FALSE(parsed[1].executed);
    EXPECT_EQ(parsed[1].outcome, "shed");
}

TEST(ServeReplay, AccountsForRejectedAndAbortedJobs)
{
    // A run with shed + cancelled records must still replay clean:
    // the non-deterministic records are accounted (skipped), the
    // executed ones reproduce bit-for-bit.
    TrafficOptions t;
    t.seed = 17;
    t.uniques = 3;
    t.jobs = 12;
    std::vector<JobSpec> specs = makeTraffic(t);

    ServeOptions o;
    o.workers = 1;
    o.queueDepth = 2;
    o.submitWaitUs = 500;
    Server server(o); // not started while submitting: queue fills
    uint64_t cancelMe = 0;
    for (size_t j = 0; j < specs.size(); ++j) {
        uint64_t id = server.submit(std::move(specs[j]));
        if (j == 1)
            cancelMe = id;
    }
    ASSERT_NE(cancelMe, 0u);
    server.cancelJob(cancelMe);
    server.start();
    server.drain();

    std::vector<JobResult> results = server.results();
    ASSERT_EQ(results.size(), t.jobs);
    std::stringstream ss;
    writeJobLog(ss, results);
    std::vector<JobLogEntry> log;
    std::string err;
    ASSERT_TRUE(readJobLog(ss, log, &err)) << err;

    std::vector<JobSpec> fresh = makeTraffic(t);
    ReplayReport rep = replayLog(log, fresh, o);
    EXPECT_TRUE(rep.ok()) << rep.mismatches.size() << " mismatches";
    EXPECT_GT(rep.skipped, 0u) << "shed/cancelled must be accounted";
    EXPECT_EQ(rep.jobs + rep.skipped, t.jobs);
}

/**
 * @file
 * The persistent-config-store robustness battery (DESIGN.md §17):
 * record codec round trips over the full app suite, adversarial
 * record images (truncation at every header byte, bit flips in
 * payload and checksum, empty files, version skew) proving
 * quarantine-not-crash, the atomic-publish fault seam (short write,
 * EIO, fsync/rename failure, crash-before-rename and
 * crash-after-temp-write), the single-writer lock with stale-owner
 * takeover, graceful degradation on unusable directories, size-cap
 * eviction, and the in-process warm-restart proof: a restarted server
 * over the same store dir serves bit-identical results with zero
 * recompiles. Runs under ThreadSanitizer in CI like the rest of the
 * serve battery.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "arch/cfgio.hpp"
#include "compiler/mapper.hpp"
#include "runtime/manifest.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "serve/traffic.hpp"

using namespace plast;
using namespace plast::serve;

namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    std::string path;
    TempDir()
    {
        char tmpl[] = "/tmp/plast-store-XXXXXX";
        char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }
    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
    }
    std::string sub(const std::string &name) const
    {
        return path + "/" + name;
    }
};

compiler::MapResult
compileApp(const apps::AppInstance &inst, const ArchParams &params)
{
    compiler::MapResult mr = compiler::compileProgram(inst.prog, params);
    EXPECT_TRUE(mr.report.ok) << inst.name << ": " << mr.report.error;
    return mr;
}

StoredConfig
storedFor(const apps::AppInstance &inst, const ArchParams &params)
{
    compiler::MapResult mr = compileApp(inst, params);
    return makeStoredConfig(hashProgram(inst.prog), hashArch(params), mr);
}

std::string
readAll(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

size_t
countFiles(const std::string &dir, const std::string &prefix)
{
    size_t n = 0;
    if (!fs::exists(dir))
        return 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().rfind(prefix, 0) == 0)
            ++n;
    return n;
}

} // namespace

// ---- record codec ----------------------------------------------------

TEST(StoreCodec, RoundTripsEveryAppInTheSuite)
{
    // The payload embeds the cfgio text serialization, whose
    // encode/decode fixpoint the cfgio tests already prove; this test
    // proves the *record* layer (header, checksum, drambase, report
    // counters) loses nothing for any real compiled config.
    ArchParams params;
    for (const apps::AppSpec &spec : apps::allApps()) {
        apps::AppInstance inst = spec.make(apps::Scale::kTiny);
        StoredConfig rec = storedFor(inst, params);
        std::string bytes = encodeRecord(rec);

        StoredConfig back;
        Status st = decodeRecord(bytes, back);
        ASSERT_TRUE(st.ok()) << inst.name << ": " << st.toString();
        EXPECT_EQ(back.pirHash, rec.pirHash) << inst.name;
        EXPECT_EQ(back.archHash, rec.archHash) << inst.name;
        EXPECT_EQ(back.dramBase, rec.dramBase) << inst.name;
        EXPECT_TRUE(back.report.ok) << inst.name;
        EXPECT_EQ(back.report.pcusUsed, rec.report.pcusUsed);
        EXPECT_EQ(back.report.pmusUsed, rec.report.pmusUsed);
        EXPECT_EQ(back.report.agsUsed, rec.report.agsUsed);
        EXPECT_EQ(back.report.boxesUsed, rec.report.boxesUsed);
        EXPECT_EQ(back.report.channels, rec.report.channels);
        EXPECT_EQ(back.report.routedHops, rec.report.routedHops);
        EXPECT_EQ(back.report.stagesUsed, rec.report.stagesUsed);
        EXPECT_EQ(back.report.regsUsed, rec.report.regsUsed);
        EXPECT_EQ(back.report.sramWordsUsed, rec.report.sramWordsUsed);
        EXPECT_EQ(back.report.fuActive, rec.report.fuActive);
        // Bit-identical config: the text serialization is the
        // authoritative equality.
        EXPECT_EQ(configToText(back.fabric), configToText(rec.fabric))
            << inst.name;
    }
}

TEST(StoreCodec, TruncationAtEveryHeaderByteIsTypedCorrupt)
{
    ArchParams params;
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    std::string bytes = encodeRecord(storedFor(inst, params));
    ASSERT_GT(bytes.size(), RecordHeader::kSize);

    // Every header-boundary truncation, including the empty file, must
    // come back kCorrupt — never a crash, never a success.
    for (size_t len = 0; len <= RecordHeader::kSize; ++len) {
        StoredConfig out;
        Status st = decodeRecord(bytes.substr(0, len), out);
        EXPECT_EQ(st.code(), StatusCode::kCorrupt) << "len=" << len;
    }
    // A torn payload (header intact, payload short) is caught by the
    // declared-length check before the checksum even runs.
    for (size_t cut = 1; cut <= 3; ++cut) {
        StoredConfig out;
        Status st = decodeRecord(bytes.substr(0, bytes.size() - cut), out);
        EXPECT_EQ(st.code(), StatusCode::kCorrupt) << "cut=" << cut;
    }
}

TEST(StoreCodec, SingleBitFlipsAnywhereAreTypedCorrupt)
{
    ArchParams params;
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    std::string bytes = encodeRecord(storedFor(inst, params));

    // A sample of byte positions spanning magic, version, flags,
    // length, checksum and payload (every byte would be O(size*8)
    // decodes); each single-bit flip must be rejected as corrupt.
    std::vector<size_t> positions = {0,  3,  7,  8,  11, 12,
                                     15, 16, 23, 24, 31};
    for (size_t p = RecordHeader::kSize; p < bytes.size();
         p += bytes.size() / 37 + 1)
        positions.push_back(p);
    for (size_t pos : positions) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutated = bytes;
            mutated[pos] = static_cast<char>(
                static_cast<uint8_t>(mutated[pos]) ^ (1u << bit));
            StoredConfig out;
            Status st = decodeRecord(mutated, out);
            EXPECT_EQ(st.code(), StatusCode::kCorrupt)
                << "pos=" << pos << " bit=" << bit;
        }
    }
}

TEST(StoreCodec, VersionSkewAndReservedFlagsAreRejected)
{
    ArchParams params;
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    std::string bytes = encodeRecord(storedFor(inst, params));

    // A record of the previous version (v1: the hand-listed arch hash
    // and `fabriccfg 1`); the version field's little-endian low byte.
    std::string old = bytes;
    old[8] = static_cast<char>(RecordHeader::kVersion - 1);
    StoredConfig out;
    Status st = decodeRecord(old, out);
    EXPECT_EQ(st.code(), StatusCode::kCorrupt);
    EXPECT_NE(st.toString().find("version"), std::string::npos)
        << st.toString();

    std::string flagged = bytes;
    flagged[12] = 1; // reserved flags must be zero
    st = decodeRecord(flagged, out);
    EXPECT_EQ(st.code(), StatusCode::kCorrupt);
}

// ---- store lifecycle -------------------------------------------------

TEST(Store, PersistLoadAcrossReopenIsBitIdentical)
{
    TempDir td;
    ArchParams params;
    apps::AppInstance inst = apps::makeGemm(apps::Scale::kTiny);
    compiler::MapResult mr = compileApp(inst, params);
    uint64_t pir = hashProgram(inst.prog);
    uint64_t arch = hashArch(params);
    std::string want = configToText(mr.fabric);

    {
        StoreOptions o;
        o.dir = td.sub("store");
        auto st = ConfigStore::open(o);
        ASSERT_EQ(st->mode(), StoreMode::kReadWrite);
        st->persist(pir, arch,
                    std::make_shared<compiler::MapResult>(mr));
        st->flush();
        EXPECT_EQ(st->stats().writes, 1u);
        EXPECT_EQ(st->stats().records, 1u);
    } // orderly close releases the LOCK

    StoreOptions o;
    o.dir = td.sub("store");
    Status why;
    auto st = ConfigStore::open(o, &why);
    ASSERT_EQ(st->mode(), StoreMode::kReadWrite) << why.toString();
    StoredConfig rec;
    Status got = st->load(pir, arch, rec);
    ASSERT_TRUE(got.ok()) << got.toString();
    EXPECT_EQ(configToText(rec.fabric), want);
    EXPECT_EQ(rec.dramBase, mr.dramBase);
    EXPECT_EQ(st->stats().hits, 1u);

    // And the frozen MapResult a cache adoption needs is well-formed.
    auto adopted = toMapResult(std::move(rec));
    EXPECT_TRUE(adopted->report.ok);
    EXPECT_EQ(configToText(adopted->fabric), want);

    Status miss = st->load(pir + 1, arch, rec);
    EXPECT_EQ(miss.code(), StatusCode::kNotFound);
    EXPECT_EQ(st->stats().misses, 1u);
}

TEST(Store, RecoveryQuarantinesCorruptAndMisnamedRecords)
{
    TempDir td;
    ArchParams params;
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    compiler::MapResult mr = compileApp(inst, params);
    uint64_t pir = hashProgram(inst.prog);
    uint64_t arch = hashArch(params);

    std::string dir = td.sub("store");
    {
        StoreOptions o;
        o.dir = dir;
        auto st = ConfigStore::open(o);
        st->persist(pir, arch,
                    std::make_shared<compiler::MapResult>(mr));
        st->flush();
    }

    // Plant the full corruption zoo next to the one good record:
    // a bit-flipped copy under a different (valid-shape) name, a
    // truncated record, junk bytes, and a tmp- crash leftover.
    std::string good;
    std::string goodName;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().filename().string() == "LOCK")
            continue;
        goodName = e.path().filename().string();
        good = readAll(e.path().string());
    }
    ASSERT_FALSE(good.empty());
    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x10;
    writeAll(dir + "/cc-00000000000000aa-00000000000000bb.pcc", flipped);
    writeAll(dir + "/cc-00000000000000cc-00000000000000dd.pcc",
             good.substr(0, good.size() / 3));
    writeAll(dir + "/cc-00000000000000ee-00000000000000ff.pcc",
             "not a record at all");
    writeAll(dir + "/tmp-cc-dead.pcc.123.9", "torn temp");

    StoreOptions o;
    o.dir = dir;
    auto st = ConfigStore::open(o);
    ASSERT_EQ(st->mode(), StoreMode::kReadWrite);
    StoreStats ss = st->stats();
    // The bit-flipped copy fails its checksum; the truncated one its
    // length check; the junk its magic. All three quarantined, the
    // temp reclaimed, the good record still served.
    EXPECT_EQ(ss.corruptQuarantined, 3u);
    EXPECT_EQ(ss.tmpReclaimed, 1u);
    EXPECT_EQ(ss.records, 1u);
    EXPECT_EQ(countFiles(dir + "/quarantine", "cc-"), 3u);
    EXPECT_EQ(countFiles(dir, "tmp-"), 0u);

    StoredConfig rec;
    EXPECT_TRUE(st->load(pir, arch, rec).ok());
    (void)goodName;
}

TEST(Store, RenamedRecordCannotAliasAnotherKey)
{
    TempDir td;
    ArchParams params;
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    compiler::MapResult mr = compileApp(inst, params);
    std::string dir = td.sub("store");
    {
        StoreOptions o;
        o.dir = dir;
        auto st = ConfigStore::open(o);
        st->persist(hashProgram(inst.prog), hashArch(params),
                    std::make_shared<compiler::MapResult>(mr));
        st->flush();
    }
    // Rename the (internally valid) record to claim a different
    // content address: the embedded address wins and the file is
    // quarantined at the next open — a store can't be tricked into
    // serving config X for key Y.
    std::string victim;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().rfind("cc-", 0) == 0)
            victim = e.path().string();
    ASSERT_FALSE(victim.empty());
    std::string alias =
        dir + "/cc-1111111111111111-2222222222222222.pcc";
    ASSERT_EQ(::rename(victim.c_str(), alias.c_str()), 0);

    StoreOptions o;
    o.dir = dir;
    auto st = ConfigStore::open(o);
    EXPECT_EQ(st->stats().corruptQuarantined, 1u);
    EXPECT_EQ(st->stats().records, 0u);
    StoredConfig rec;
    EXPECT_EQ(st->load(0x1111111111111111ull, 0x2222222222222222ull, rec)
                  .code(),
              StatusCode::kNotFound);
}

TEST(Store, SecondOpenerDegradesToReadOnlyAndStaleLockIsReclaimed)
{
    TempDir td;
    ArchParams params;
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    compiler::MapResult mr = compileApp(inst, params);
    uint64_t pir = hashProgram(inst.prog);
    uint64_t arch = hashArch(params);
    std::string dir = td.sub("store");

    StoreOptions o;
    o.dir = dir;
    auto owner = ConfigStore::open(o);
    ASSERT_EQ(owner->mode(), StoreMode::kReadWrite);
    owner->persist(pir, arch,
                   std::make_shared<compiler::MapResult>(mr));
    owner->flush();

    // A second live daemon: read-only. Probes are served (published
    // records are immutable-by-rename), writes are dropped + counted.
    Status why;
    auto second = ConfigStore::open(o, &why);
    EXPECT_EQ(second->mode(), StoreMode::kReadOnly);
    EXPECT_EQ(why.code(), StatusCode::kUnavailable) << why.toString();
    StoredConfig rec;
    EXPECT_TRUE(second->load(pir, arch, rec).ok());
    second->persist(pir + 1, arch,
                    std::make_shared<compiler::MapResult>(mr));
    second->flush();
    EXPECT_GE(second->stats().fallback, 1u);
    EXPECT_EQ(countFiles(dir, "cc-"), 1u);
    second.reset();

    // Simulate a SIGKILLed owner: a LOCK naming a pid that is
    // genuinely dead (forked child, exited and reaped, so the pid is
    // not recycled yet). The next opener must detect it and take over.
    owner.reset();
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        _exit(0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    {
        std::ofstream lk(dir + "/LOCK", std::ios::trunc);
        lk << "pid " << static_cast<long>(child) << "\n";
    }
    auto heir = ConfigStore::open(o, &why);
    EXPECT_EQ(heir->mode(), StoreMode::kReadWrite) << why.toString();
    EXPECT_TRUE(heir->load(pir, arch, rec).ok());
}

TEST(Store, UnusableDirectoryDegradesToDisabledTypedNoOps)
{
    TempDir td;
    // The path is a regular file: mkdir fails, stat says !dir.
    writeAll(td.sub("not-a-dir"), "occupied");
    StoreOptions o;
    o.dir = td.sub("not-a-dir");
    Status why;
    auto st = ConfigStore::open(o, &why);
    ASSERT_NE(st, nullptr); // never fails hard
    EXPECT_EQ(st->mode(), StoreMode::kDisabled);
    EXPECT_EQ(why.code(), StatusCode::kUnavailable);

    StoredConfig rec;
    EXPECT_EQ(st->load(1, 2, rec).code(), StatusCode::kUnavailable);
    st->persist(1, 2, nullptr);
    st->flush(); // must not hang with no writer thread
    EXPECT_GE(st->stats().fallback, 2u);

    // Missing parent directory: same degradation.
    StoreOptions deep;
    deep.dir = td.sub("no/such/parent");
    auto st2 = ConfigStore::open(deep, &why);
    EXPECT_EQ(st2->mode(), StoreMode::kDisabled);
}

// ---- fault seam ------------------------------------------------------

namespace
{

/** A store + one compiled config for fault tests; persistOnce() waits
 *  for the write-behind publish. */
struct FaultRig
{
    TempDir td;
    ArchParams params;
    compiler::MapResult mr;
    uint64_t pir = 0, arch = 0;
    std::unique_ptr<ConfigStore> st;

    FaultRig()
    {
        apps::AppInstance inst =
            apps::makeInnerProduct(apps::Scale::kTiny);
        mr = compileApp(inst, params);
        pir = hashProgram(inst.prog);
        arch = hashArch(params);
        StoreOptions o;
        o.dir = td.sub("store");
        st = ConfigStore::open(o);
        EXPECT_EQ(st->mode(), StoreMode::kReadWrite);
    }
    void persistOnce()
    {
        st->persist(pir, arch,
                    std::make_shared<compiler::MapResult>(mr));
        st->flush();
    }
    std::string dir() const { return td.sub("store"); }
};

} // namespace

TEST(StoreFaults, ShortWriteLeavesTornTempThatRecoveryReclaims)
{
    FaultRig rig;
    StoreFaultPlan plan;
    plan.kind = StoreFault::kShortWrite;
    plan.shortBytes = 40;
    rig.st->setFaultPlan(plan);
    rig.persistOnce();
    StoreStats ss = rig.st->stats();
    EXPECT_EQ(ss.writes, 0u);
    EXPECT_EQ(ss.writeFailures, 1u);
    // The torn temp is exactly what a crash mid-write leaves; it must
    // never be visible under a final name.
    EXPECT_EQ(countFiles(rig.dir(), "cc-"), 0u);
    EXPECT_EQ(countFiles(rig.dir(), "tmp-"), 1u);

    // The one-shot plan has fired: the retry succeeds.
    rig.persistOnce();
    EXPECT_EQ(rig.st->stats().writes, 1u);
    StoredConfig rec;
    EXPECT_TRUE(rig.st->load(rig.pir, rig.arch, rec).ok());

    // Reopen reclaims the torn temp.
    rig.st.reset();
    StoreOptions o;
    o.dir = rig.dir();
    auto st = ConfigStore::open(o);
    EXPECT_EQ(st->stats().tmpReclaimed, 1u);
    EXPECT_EQ(countFiles(rig.dir(), "tmp-"), 0u);
    EXPECT_EQ(st->stats().records, 1u);
}

TEST(StoreFaults, WriteFsyncRenameFailuresAreCountedAndClean)
{
    for (StoreFault f : {StoreFault::kEioWrite, StoreFault::kFailFsync,
                         StoreFault::kFailRename}) {
        FaultRig rig;
        StoreFaultPlan plan;
        plan.kind = f;
        rig.st->setFaultPlan(plan);
        rig.persistOnce();
        StoreStats ss = rig.st->stats();
        EXPECT_EQ(ss.writes, 0u) << static_cast<int>(f);
        EXPECT_EQ(ss.writeFailures, 1u) << static_cast<int>(f);
        // Failed publishes clean their temp and publish nothing.
        EXPECT_EQ(countFiles(rig.dir(), "cc-"), 0u);
        EXPECT_EQ(countFiles(rig.dir(), "tmp-"), 0u);
        StoredConfig rec;
        EXPECT_EQ(rig.st->load(rig.pir, rig.arch, rec).code(),
                  StatusCode::kNotFound);
        // The store stays serviceable after the fault.
        rig.persistOnce();
        EXPECT_EQ(rig.st->stats().writes, 1u);
    }
}

TEST(StoreFaults, CrashBeforeRenameIsInvisibleAndReclaimed)
{
    // Both crash points leave only a tmp- file — fully staged
    // (crash-before-rename) or torn (crash-after-temp-write) — and
    // neither is ever served: publish-by-rename means a record either
    // appears whole under its final name or not at all.
    for (StoreFault f : {StoreFault::kCrashBeforeRename,
                         StoreFault::kCrashAfterTempWrite}) {
        FaultRig rig;
        StoreFaultPlan plan;
        plan.kind = f;
        rig.st->setFaultPlan(plan);
        rig.persistOnce();
        EXPECT_EQ(countFiles(rig.dir(), "cc-"), 0u)
            << static_cast<int>(f);
        EXPECT_EQ(countFiles(rig.dir(), "tmp-"), 1u)
            << static_cast<int>(f);
        StoredConfig rec;
        EXPECT_EQ(rig.st->load(rig.pir, rig.arch, rec).code(),
                  StatusCode::kNotFound);

        rig.st.reset(); // the "restart"
        StoreOptions o;
        o.dir = rig.dir();
        auto st = ConfigStore::open(o);
        EXPECT_EQ(st->stats().tmpReclaimed, 1u);
        EXPECT_EQ(st->stats().records, 0u);
        EXPECT_EQ(st->load(rig.pir, rig.arch, rec).code(),
                  StatusCode::kNotFound);
    }
}

TEST(Store, SizeCapEvictsOldestButNeverTheNewest)
{
    TempDir td;
    ArchParams params;
    apps::AppInstance inst = apps::makeInnerProduct(apps::Scale::kTiny);
    compiler::MapResult mr = compileApp(inst, params);
    uint64_t arch = hashArch(params);

    StoreOptions o;
    o.dir = td.sub("store");
    // Roughly two records' worth: the third publish evicts the first.
    o.maxBytes = 2 * encodeRecord(makeStoredConfig(1, arch, mr)).size() +
                 64;
    auto st = ConfigStore::open(o);
    for (uint64_t k = 1; k <= 3; ++k) {
        st->persist(k, arch, std::make_shared<compiler::MapResult>(mr));
        st->flush();
    }
    StoreStats ss = st->stats();
    EXPECT_EQ(ss.writes, 3u);
    EXPECT_EQ(ss.evicted, 1u);
    EXPECT_EQ(ss.records, 2u);
    EXPECT_LE(ss.bytes, o.maxBytes);
    StoredConfig rec;
    EXPECT_EQ(st->load(1, arch, rec).code(), StatusCode::kNotFound);
    EXPECT_TRUE(st->load(2, arch, rec).ok());
    EXPECT_TRUE(st->load(3, arch, rec).ok());

    // A cap smaller than one record still serves the newest rather
    // than thrashing an empty store.
    StoreOptions tiny;
    tiny.dir = td.sub("tiny");
    tiny.maxBytes = 128;
    auto st2 = ConfigStore::open(tiny);
    st2->persist(7, arch, std::make_shared<compiler::MapResult>(mr));
    st2->flush();
    EXPECT_EQ(st2->stats().records, 1u);
    EXPECT_TRUE(st2->load(7, arch, rec).ok());
}

// ---- warm restart through the server ---------------------------------

TEST(StoreServe, WarmRestartServesBitIdenticalWithZeroRecompiles)
{
    TempDir td;
    TrafficOptions topts;
    topts.jobs = 24;
    topts.uniques = 6;
    ServeOptions sopts;
    sopts.workers = 4;
    sopts.storeDir = td.sub("store");

    std::map<std::string, uint64_t> coldHashes;
    {
        Server server(sopts);
        ASSERT_NE(server.store(), nullptr);
        server.start();
        for (JobSpec &s : makeTraffic(topts))
            server.submit(std::move(s));
        server.drain();
        for (const JobResult &r : server.results()) {
            ASSERT_TRUE(r.outcome) << r.source;
            EXPECT_EQ(r.outcome->outcome, "ok") << r.source;
            coldHashes[r.source] = r.outcome->resultHash;
        }
        StoreStats ss = server.store()->stats();
        EXPECT_EQ(ss.hits, 0u);
        EXPECT_EQ(ss.writes, topts.uniques); // one per unique identity
    } // drain() flushed; destruction releases the LOCK

    // The restarted daemon: every unique config comes off disk, the
    // compiler is never invoked, and every result hash matches the
    // cold run bit for bit.
    Server server(sopts);
    ASSERT_NE(server.store(), nullptr);
    server.start();
    for (JobSpec &s : makeTraffic(topts))
        server.submit(std::move(s));
    server.drain();
    for (const JobResult &r : server.results()) {
        ASSERT_TRUE(r.outcome) << r.source;
        EXPECT_EQ(r.outcome->outcome, "ok") << r.source;
        EXPECT_EQ(r.outcome->resultHash, coldHashes[r.source])
            << r.source;
    }
    StoreStats ss = server.store()->stats();
    EXPECT_EQ(ss.hits, topts.uniques);
    EXPECT_EQ(ss.misses, 0u); // zero recompiles for persisted keys
    EXPECT_EQ(ss.writes, 0u);
}

TEST(StoreServe, CorruptRecordIsQuarantinedRecompiledAndRepaired)
{
    TempDir td;
    TrafficOptions topts;
    topts.jobs = 12;
    topts.uniques = 3;
    ServeOptions sopts;
    sopts.workers = 2;
    sopts.storeDir = td.sub("store");

    std::map<std::string, uint64_t> coldHashes;
    {
        Server server(sopts);
        server.start();
        for (JobSpec &s : makeTraffic(topts))
            server.submit(std::move(s));
        server.drain();
        for (const JobResult &r : server.results())
            coldHashes[r.source] = r.outcome ? r.outcome->resultHash : 0;
    }

    // Flip one bit in one published record.
    std::string victim;
    for (const auto &e : fs::directory_iterator(td.sub("store")))
        if (e.path().filename().string().rfind("cc-", 0) == 0)
            victim = e.path().string();
    ASSERT_FALSE(victim.empty());
    std::string bytes = readAll(victim);
    bytes[bytes.size() - 9] ^= 0x04;
    writeAll(victim, bytes);

    // Restart: the damaged record is quarantined at the recovery
    // scan, its jobs recompile (a miss, not a failure), the fresh
    // compile re-persists, and every result is still bit-identical.
    Server server(sopts);
    server.start();
    for (JobSpec &s : makeTraffic(topts))
        server.submit(std::move(s));
    server.drain();
    for (const JobResult &r : server.results()) {
        ASSERT_TRUE(r.outcome) << r.source;
        EXPECT_EQ(r.outcome->outcome, "ok") << r.source;
        EXPECT_EQ(r.outcome->resultHash, coldHashes[r.source])
            << r.source;
    }
    StoreStats ss = server.store()->stats();
    EXPECT_EQ(ss.corruptQuarantined, 1u);
    EXPECT_EQ(ss.hits, topts.uniques - 1);
    EXPECT_EQ(ss.misses, 1u);
    EXPECT_EQ(ss.writes, 1u); // the repair
    EXPECT_EQ(countFiles(td.sub("store") + "/quarantine", "cc-"), 1u);
}

TEST(StoreServe, DisabledStoreKeepsServingFromMemory)
{
    // --store-dir pointing at a file must not take the daemon down:
    // kDisabled store, in-memory serving exactly as before.
    TempDir td;
    writeAll(td.sub("occupied"), "not a directory");
    TrafficOptions topts;
    topts.jobs = 8;
    topts.uniques = 2;
    ServeOptions sopts;
    sopts.workers = 2;
    sopts.storeDir = td.sub("occupied");

    Server server(sopts);
    ASSERT_NE(server.store(), nullptr);
    EXPECT_EQ(server.store()->mode(), StoreMode::kDisabled);
    EXPECT_EQ(server.storeStatus().code(), StatusCode::kUnavailable);
    server.start();
    for (JobSpec &s : makeTraffic(topts))
        server.submit(std::move(s));
    server.drain();
    for (const JobResult &r : server.results())
        EXPECT_EQ(r.outcome ? r.outcome->outcome : "lost", "ok");
    EXPECT_GE(server.store()->stats().fallback, 1u);
}

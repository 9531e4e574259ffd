#include "serve/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "arch/cfgio.hpp"
#include "base/logging.hpp"
#include "base/textio.hpp"
#include "runtime/manifest.hpp"

namespace plast::serve
{

namespace
{

constexpr const char *kPayloadHeader = "plast.store.cc.v1";
constexpr const char *kLockName = "LOCK";
constexpr const char *kQuarantineDir = "quarantine";
constexpr const char *kTmpPrefix = "tmp-";

std::string
hex64(uint64_t v)
{
    char buf[17];
    snprintf(buf, sizeof buf, "%016llx",
             static_cast<unsigned long long>(v));
    return buf;
}

void
putU32(std::string &s, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &s, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint32_t
getU32(const std::string &s, size_t at)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(s[at + i]))
             << (8 * i);
    return v;
}

uint64_t
getU64(const std::string &s, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(s[at + i]))
             << (8 * i);
    return v;
}

/** Full-file read; false on any IO error. */
bool
readFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    out.clear();
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return true;
}

bool
fsyncDir(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

// ---- record codec ----------------------------------------------------

StoredConfig
makeStoredConfig(uint64_t pirHash, uint64_t archHash,
                 const compiler::MapResult &map)
{
    StoredConfig rec;
    rec.pirHash = pirHash;
    rec.archHash = archHash;
    rec.dramBase = map.dramBase;
    rec.report = map.report;
    // Diagnostics describe the compile that happened, not the config:
    // a reloaded record starts from a clean (ok) report with only the
    // numeric resource counters preserved.
    rec.report.diag = compiler::CompileDiagnostics{};
    rec.report.error.clear();
    rec.fabric = map.fabric;
    return rec;
}

std::shared_ptr<const compiler::MapResult>
toMapResult(StoredConfig &&rec)
{
    auto mr = std::make_shared<compiler::MapResult>();
    mr->fabric = std::move(rec.fabric);
    mr->report = std::move(rec.report);
    mr->report.ok = true; // only successful compiles are persisted
    mr->dramBase = std::move(rec.dramBase);
    return mr;
}

namespace
{

/** The record payload's one field list (DESIGN.md §17): the content
 *  address as 16-digit hex hashes, the DRAM layout, the report
 *  counters as `key=value`, then the .pcfg config. */
template <class Ar, Is<StoredConfig> R>
void
fields(Ar &ar, R &rec)
{
    auto &r = rec.report;
    ar.line(kPayloadHeader);
    ar.line("pir", hash(rec.pirHash));
    ar.line("arch", hash(rec.archHash));
    ar.line("drambase", rec.dramBase);
    ar.line("report", keyed("pcus", r.pcusUsed), keyed("pmus", r.pmusUsed),
            keyed("ags", r.agsUsed), keyed("boxes", r.boxesUsed),
            keyed("channels", r.channels), keyed("hops", r.routedHops),
            keyed("stages", r.stagesUsed), keyed("regs", r.regsUsed),
            keyed("sram", r.sramWordsUsed), keyed("fu", r.fuActive));
    ar.line("config");
    configFields(ar, rec.fabric);
}

} // namespace

std::string
encodeRecord(const StoredConfig &rec)
{
    std::ostringstream p;
    TextWriter ar(p);
    fields(ar, rec);
    std::string payload = p.str();

    std::string out;
    out.reserve(RecordHeader::kSize + payload.size());
    out.append(RecordHeader::kMagic, 8);
    putU32(out, RecordHeader::kVersion);
    putU32(out, 0); // flags, reserved
    putU64(out, payload.size());
    putU64(out, fnv1a64(payload));
    out += payload;
    return out;
}

Status
decodeRecord(const std::string &bytes, StoredConfig &out)
{
    auto corrupt = [](const std::string &why) {
        return Status(StatusCode::kCorrupt, why);
    };
    if (bytes.size() < RecordHeader::kSize)
        return corrupt(strfmt("truncated header (%zu of %zu bytes)",
                              bytes.size(), RecordHeader::kSize));
    if (bytes.compare(0, 8, RecordHeader::kMagic, 8) != 0)
        return corrupt("bad magic");
    uint32_t version = getU32(bytes, 8);
    if (version != RecordHeader::kVersion)
        return corrupt(strfmt("version mismatch (record v%u, reader v%u)",
                              version, RecordHeader::kVersion));
    uint32_t flags = getU32(bytes, 12);
    if (flags != 0)
        return corrupt(strfmt("reserved flags set (0x%x)", flags));
    uint64_t payloadLen = getU64(bytes, 16);
    uint64_t checksum = getU64(bytes, 24);
    if (bytes.size() - RecordHeader::kSize != payloadLen)
        return corrupt(strfmt(
            "payload length mismatch (header says %llu, file has %zu)",
            static_cast<unsigned long long>(payloadLen),
            bytes.size() - RecordHeader::kSize));
    std::string payload = bytes.substr(RecordHeader::kSize);
    if (fnv1a64(payload) != checksum)
        return corrupt("checksum mismatch");

    // The payload validated bit-for-bit; parse failures past this
    // point would mean a writer bug, but they still come back typed.
    std::istringstream is(payload);
    TextReader ar(is);
    fields(ar, out);
    if (!ar.ok())
        return corrupt("payload parse: " + ar.error());
    out.report.ok = true;
    return Status();
}

// ---- the store -------------------------------------------------------

const char *
storeModeName(StoreMode m)
{
    switch (m) {
      case StoreMode::kReadWrite: return "read-write";
      case StoreMode::kReadOnly: return "read-only";
      case StoreMode::kDisabled: return "disabled";
    }
    return "unknown";
}

std::string
ConfigStore::recordName(uint64_t pirHash, uint64_t archHash)
{
    return "cc-" + hex64(pirHash) + "-" + hex64(archHash) + ".pcc";
}

std::string
ConfigStore::recordPath(const std::string &file) const
{
    return opts_.dir + "/" + file;
}

std::unique_ptr<ConfigStore>
ConfigStore::open(StoreOptions opts, Status *why)
{
    auto store = std::unique_ptr<ConfigStore>(new ConfigStore());
    store->opts_ = std::move(opts);
    if (why)
        *why = Status();

    // An unusable directory degrades to in-memory-only serving: the
    // store exists, every op is a typed no-op, the daemon starts.
    struct stat st;
    if (::mkdir(store->opts_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
        if (why)
            *why = Status(StatusCode::kUnavailable,
                          strfmt("mkdir '%s': %s",
                                 store->opts_.dir.c_str(),
                                 std::strerror(errno)));
        store->fallback_++;
        return store;
    }
    if (::stat(store->opts_.dir.c_str(), &st) != 0 ||
        !S_ISDIR(st.st_mode)) {
        if (why)
            *why = Status(StatusCode::kUnavailable,
                          strfmt("'%s' is not a usable directory",
                                 store->opts_.dir.c_str()));
        store->fallback_++;
        return store;
    }

    Status lockWhy;
    if (store->acquireLock(&lockWhy)) {
        store->mode_ = StoreMode::kReadWrite;
    } else {
        // A live foreign owner: published records are immutable (they
        // only ever appear by rename), so reads stay safe — degrade
        // to read-only rather than refusing to start.
        store->mode_ = StoreMode::kReadOnly;
        if (why)
            *why = lockWhy;
    }

    store->recoveryScan();

    if (store->mode_ == StoreMode::kReadWrite)
        store->writer_ = std::thread([s = store.get()] { s->writerLoop(); });
    return store;
}

ConfigStore::~ConfigStore()
{
    {
        std::unique_lock<std::mutex> lk(qmu_);
        closing_ = true;
        qcv_.notify_all();
    }
    if (writer_.joinable())
        writer_.join();
    releaseLock();
}

bool
ConfigStore::acquireLock(Status *why)
{
    std::string path = opts_.dir + "/" + kLockName;
    for (int attempt = 0; attempt < 2; ++attempt) {
        int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0666);
        if (fd >= 0) {
            std::string body =
                strfmt("pid %d\n", static_cast<int>(::getpid()));
            ssize_t n = ::write(fd, body.data(), body.size());
            (void)n;
            ::fsync(fd);
            ::close(fd);
            lockOwned_ = true;
            return true;
        }
        if (errno != EEXIST) {
            if (why)
                *why = Status(StatusCode::kUnavailable,
                              strfmt("lock '%s': %s", path.c_str(),
                                     std::strerror(errno)));
            return false;
        }
        // Stale-owner detection: a SIGKILLed daemon leaves its LOCK
        // behind. kill(pid, 0) distinguishes a live owner (EPERM
        // counts as live) from a dead one; a dead owner's lock is
        // broken and the acquire retried once.
        std::string body;
        long pid = 0;
        if (readFile(path, body)) {
            if (sscanf(body.c_str(), "pid %ld", &pid) != 1)
                pid = 0;
        }
        // Our own pid counts as live too: a second store over the
        // same dir in one process (tests, embedding) must degrade to
        // read-only like any other contender, not steal the lock.
        bool alive = pid > 0 &&
                     (::kill(static_cast<pid_t>(pid), 0) == 0 ||
                      errno == EPERM);
        if (alive) {
            if (why)
                *why = Status(
                    StatusCode::kUnavailable,
                    strfmt("store locked by live pid %ld; serving "
                           "read-only",
                           pid));
            return false;
        }
        warn("config store: reclaiming stale lock '%s' (owner pid %ld "
             "is gone)",
             path.c_str(), pid);
        ::unlink(path.c_str());
    }
    if (why)
        *why = Status(StatusCode::kUnavailable,
                      "lock contention while breaking a stale lock");
    return false;
}

void
ConfigStore::releaseLock()
{
    if (!lockOwned_)
        return;
    ::unlink((opts_.dir + "/" + kLockName).c_str());
    lockOwned_ = false;
}

void
ConfigStore::quarantine(const std::string &file, const std::string &why)
{
    // Quarantine preserves the evidence (CI uploads it; humans diff
    // it) while getting it out of the serving path. Read-only openers
    // must not mutate a foreign store — they just skip the record.
    warn("config store: quarantining '%s': %s", file.c_str(),
         why.c_str());
    ++corruptQuarantined_;
    if (mode_ != StoreMode::kReadWrite)
        return;
    std::string qdir = opts_.dir + "/" + kQuarantineDir;
    if (::mkdir(qdir.c_str(), 0777) != 0 && errno != EEXIST) {
        ::unlink(recordPath(file).c_str());
        return;
    }
    std::string dst = qdir + "/" +
                      strfmt("%s.%llu", file.c_str(),
                             static_cast<unsigned long long>(
                                 corruptQuarantined_));
    if (::rename(recordPath(file).c_str(), dst.c_str()) != 0)
        ::unlink(recordPath(file).c_str());
}

void
ConfigStore::recoveryScan()
{
    DIR *d = ::opendir(opts_.dir.c_str());
    if (!d) {
        mode_ = StoreMode::kDisabled;
        ++fallback_;
        return;
    }
    struct Found
    {
        std::string name;
        uint64_t mtime = 0;
        uint64_t size = 0;
    };
    std::vector<Found> files;
    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name == "." || name == ".." || name == kLockName ||
            name == kQuarantineDir)
            continue;
        if (name.compare(0, std::strlen(kTmpPrefix), kTmpPrefix) == 0) {
            // A temp file is a crash between staging and rename; the
            // publish never happened and the bytes are untrusted.
            if (mode_ == StoreMode::kReadWrite) {
                ::unlink(recordPath(name).c_str());
                ++tmpReclaimed_;
            }
            continue;
        }
        struct stat st;
        if (::stat(recordPath(name).c_str(), &st) != 0 ||
            !S_ISREG(st.st_mode))
            continue;
        files.push_back({name, static_cast<uint64_t>(st.st_mtime),
                         static_cast<uint64_t>(st.st_size)});
    }
    ::closedir(d);

    // Oldest first, so eviction seq follows age across restarts.
    std::sort(files.begin(), files.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.name < b.name;
              });

    std::lock_guard<std::mutex> lk(mu_);
    for (const Found &f : files) {
        unsigned long long pir = 0, arch = 0;
        char tail = 0;
        // Filename is advisory; the payload's embedded address is
        // cross-checked below so a renamed record cannot alias a key.
        if (sscanf(f.name.c_str(), "cc-%16llx-%16llx.pc%c", &pir, &arch,
                   &tail) != 3 ||
            tail != 'c') {
            quarantine(f.name, "unrecognized file name");
            continue;
        }
        std::string bytes;
        if (!readFile(recordPath(f.name), bytes)) {
            quarantine(f.name, "unreadable");
            continue;
        }
        StoredConfig rec;
        Status st = decodeRecord(bytes, rec);
        if (!st.ok()) {
            quarantine(f.name, st.toString());
            continue;
        }
        if (rec.pirHash != pir || rec.archHash != arch) {
            quarantine(f.name, "content address does not match name");
            continue;
        }
        IndexEntry ie;
        ie.file = f.name;
        ie.bytes = f.size;
        ie.seq = nextSeq_++;
        bytes_ += f.size;
        index_[{pir, arch}] = std::move(ie);
    }
    enforceCap();
}

Status
ConfigStore::load(uint64_t pirHash, uint64_t archHash, StoredConfig &out)
{
    if (mode_ == StoreMode::kDisabled) {
        std::lock_guard<std::mutex> lk(mu_);
        ++fallback_;
        return Status(StatusCode::kUnavailable, "store disabled");
    }
    std::string file;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = index_.find({pirHash, archHash});
        if (it == index_.end()) {
            ++misses_;
            return Status(StatusCode::kNotFound, "no persisted record");
        }
        file = it->second.file;
    }
    std::string bytes;
    Status st;
    if (!readFile(recordPath(file), bytes))
        st = Status(StatusCode::kCorrupt, "unreadable");
    else
        st = decodeRecord(bytes, out);
    if (st.ok() && (out.pirHash != pirHash || out.archHash != archHash))
        st = Status(StatusCode::kCorrupt,
                    "content address does not match key");
    std::lock_guard<std::mutex> lk(mu_);
    if (st.ok()) {
        ++hits_;
        return st;
    }
    // The checksum gate runs on every load, so bit rot that postdates
    // the startup scan is still caught here — quarantine, count it a
    // miss, and let the caller's fresh compile repair the store.
    ++misses_;
    auto it = index_.find({pirHash, archHash});
    if (it != index_.end()) {
        bytes_ -= std::min(bytes_, it->second.bytes);
        quarantine(it->second.file, st.toString());
        index_.erase(it);
    }
    return st;
}

void
ConfigStore::persist(uint64_t pirHash, uint64_t archHash,
                     std::shared_ptr<const compiler::MapResult> map)
{
    if (mode_ != StoreMode::kReadWrite || !map || !map->report.ok) {
        std::lock_guard<std::mutex> lk(mu_);
        ++fallback_;
        return;
    }
    PendingWrite w{pirHash, archHash, std::move(map)};
    std::lock_guard<std::mutex> lk(qmu_);
    if (closing_) {
        std::lock_guard<std::mutex> slk(mu_);
        ++fallback_;
        return;
    }
    queue_.push_back(std::move(w));
    qcv_.notify_one();
}

void
ConfigStore::flush()
{
    if (mode_ != StoreMode::kReadWrite)
        return;
    std::unique_lock<std::mutex> lk(qmu_);
    idle_.wait(lk, [this] { return queue_.empty() && inFlight_ == 0; });
}

void
ConfigStore::writerLoop()
{
    std::unique_lock<std::mutex> lk(qmu_);
    for (;;) {
        qcv_.wait(lk, [this] { return closing_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (closing_)
                return;
            continue;
        }
        PendingWrite w = std::move(queue_.front());
        queue_.pop_front();
        ++inFlight_;
        lk.unlock();
        publish(w);
        lk.lock();
        --inFlight_;
        if (queue_.empty() && inFlight_ == 0)
            idle_.notify_all();
    }
}

StoreFault
ConfigStore::takeFault(uint64_t ordinal, size_t *shortBytes)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fault_.fired || fault_.kind == StoreFault::kNone ||
        ordinal != fault_.onNthWrite)
        return StoreFault::kNone;
    fault_.fired = true; // one-shot, resilience-fault style
    if (shortBytes)
        *shortBytes = fault_.shortBytes;
    return fault_.kind;
}

void
ConfigStore::setFaultPlan(StoreFaultPlan plan)
{
    std::lock_guard<std::mutex> lk(mu_);
    fault_ = plan;
    fault_.fired = false;
}

bool
ConfigStore::publish(const PendingWrite &w)
{
    uint64_t ordinal;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ordinal = ++publishOrdinal_;
    }
    size_t shortBytes = 0;
    StoreFault f = takeFault(ordinal, &shortBytes);

    StoredConfig rec = makeStoredConfig(w.pirHash, w.archHash, *w.map);
    std::string bytes = encodeRecord(rec);
    std::string final = recordName(w.pirHash, w.archHash);
    std::string tmp = strfmt("%s%s.%d.%llu", kTmpPrefix, final.c_str(),
                             static_cast<int>(::getpid()),
                             static_cast<unsigned long long>(ordinal));
    std::string tmpPath = recordPath(tmp);

    auto failed = [&](const char *what, bool keepTmp = false) {
        warn("config store: publish '%s' failed at %s: %s",
             final.c_str(), what, std::strerror(errno));
        if (!keepTmp)
            ::unlink(tmpPath.c_str());
        std::lock_guard<std::mutex> lk(mu_);
        ++writeFailures_;
        return false;
    };

    int fd = ::open(tmpPath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0666);
    if (fd < 0)
        return failed("open");

    size_t want = bytes.size();
    if (f == StoreFault::kShortWrite)
        want = std::min(want, RecordHeader::kSize + shortBytes);
    ssize_t n = (f == StoreFault::kEioWrite)
                    ? -1
                    : ::write(fd, bytes.data(), want);
    if (n < 0 || static_cast<size_t>(n) != bytes.size()) {
        ::close(fd);
        if (f == StoreFault::kShortWrite || f == StoreFault::kEioWrite) {
            errno = EIO;
            // A short write leaves a torn temp on disk — exactly what
            // a crash mid-write leaves; recovery reclaims it.
            return failed(f == StoreFault::kShortWrite ? "short write"
                                                       : "write",
                          /*keepTmp=*/f == StoreFault::kShortWrite);
        }
        return failed("write");
    }
    if (f == StoreFault::kCrashAfterTempWrite) {
        // Simulated process death: no fsync, no rename, no counters —
        // a real SIGKILL updates nothing either. Recovery reclaims
        // the temp at the next open().
        ::close(fd);
        return false;
    }
    bool syncOk = ::fsync(fd) == 0;
    if (f == StoreFault::kFailFsync) {
        syncOk = false;
        errno = EIO;
    }
    if (!syncOk) {
        ::close(fd);
        return failed("fsync");
    }
    ::close(fd);
    if (f == StoreFault::kCrashBeforeRename)
        return false; // fully staged, never visible; see above

    bool renameOk = f != StoreFault::kFailRename &&
                    ::rename(tmpPath.c_str(), recordPath(final).c_str()) == 0;
    if (!renameOk) {
        if (f == StoreFault::kFailRename)
            errno = EIO;
        return failed("rename");
    }
    // Rename is atomic within the directory; the directory fsync makes
    // the *name* durable. A crash before it can lose the record but
    // never shows a torn one.
    if (!fsyncDir(opts_.dir))
        warn("config store: directory fsync failed: %s",
             std::strerror(errno));

    std::lock_guard<std::mutex> lk(mu_);
    ++writes_;
    auto it = index_.find({w.pirHash, w.archHash});
    if (it != index_.end())
        bytes_ -= std::min(bytes_, it->second.bytes);
    IndexEntry ie;
    ie.file = final;
    ie.bytes = bytes.size();
    ie.seq = nextSeq_++;
    bytes_ += ie.bytes;
    index_[{w.pirHash, w.archHash}] = std::move(ie);
    enforceCap();
    return true;
}

void
ConfigStore::enforceCap()
{
    // Callers hold mu_. Oldest-first eviction by publish/scan order;
    // the newest record always survives (a single record larger than
    // the cap is served, not thrashed).
    if (opts_.maxBytes == 0 || mode_ != StoreMode::kReadWrite)
        return;
    while (bytes_ > opts_.maxBytes && index_.size() > 1) {
        auto victim = index_.end();
        for (auto it = index_.begin(); it != index_.end(); ++it) {
            if (victim == index_.end() ||
                it->second.seq < victim->second.seq)
                victim = it;
        }
        if (victim == index_.end())
            return;
        ::unlink(recordPath(victim->second.file).c_str());
        bytes_ -= std::min(bytes_, victim->second.bytes);
        index_.erase(victim);
        ++evicted_;
    }
}

StoreStats
ConfigStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    StoreStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.writes = writes_;
    s.writeFailures = writeFailures_;
    s.corruptQuarantined = corruptQuarantined_;
    s.evicted = evicted_;
    s.fallback = fallback_;
    s.tmpReclaimed = tmpReclaimed_;
    s.bytes = bytes_;
    s.records = index_.size();
    s.mode = mode_;
    return s;
}

} // namespace plast::serve

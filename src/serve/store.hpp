/**
 * @file
 * Crash-safe persistent store for compiled fabric configs — the
 * cross-process rung of the serve daemon's config cache (DESIGN.md
 * §17). Place-and-route is by far the most expensive phase per job;
 * the config cache's content-addressed keys are already
 * platform-stable FNV-1a text hashes (runtime/manifest.hpp), so a
 * compiled config can be spilled to disk and reloaded by a restarted
 * daemon — a warm restart serves bit-identical results with zero
 * recompiles for persisted keys.
 *
 * Robustness is the headline, not the storage:
 *
 *  - **Versioned, checksummed records.** Every file is a fixed binary
 *    header (magic, schema version, payload length, FNV-1a-64
 *    checksum) over a text payload that embeds the content address
 *    and the `configToText` serialization — the same fixpoint-tested
 *    round trip the cfgio tests prove. A record is either valid in
 *    full or rejected in full.
 *  - **Atomic publish.** Writers stage into a `tmp-*` file, fsync it,
 *    rename() into place and fsync the directory — a crash at any
 *    instant leaves either the old state or the new state, never a
 *    half-written record under a final name.
 *  - **Recovery scan, quarantine, never a blocked start.** open()
 *    scans the directory: leftover temp files are reclaimed,
 *    truncated / bit-flipped / version-mismatched / misnamed records
 *    are moved to `quarantine/` with a typed Status — corruption is a
 *    counter, not a crash, and never poisons a serve result (the
 *    checksum gate runs again on every load).
 *  - **Single writer, stale-owner detection.** A `LOCK` file holds
 *    the owner pid; a second live daemon degrades to read-only
 *    (probes allowed — published records are immutable-by-rename —
 *    writes dropped and counted as fallback). A lock left by a
 *    SIGKILLed owner is detected dead via kill(pid, 0) and taken
 *    over.
 *  - **Graceful degradation.** An unusable directory (missing parent,
 *    no permissions, path is a file) yields a kDisabled store: every
 *    operation is a cheap typed no-op and the daemon serves from
 *    memory exactly as before the store existed.
 *  - **Fault-injection seam.** A one-shot StoreFaultPlan (the
 *    resilience FaultPlan idiom) makes short writes, EIO, fsync /
 *    rename failures and crash-before-rename / crash-after-temp-write
 *    reproducible in tests without a real kill -9.
 *
 * The hot path never blocks on fsync: persist() enqueues to a
 * write-behind thread (only the single-flight builder calls it, so
 * each key is persisted once); load() reads synchronously but only
 * on a config-cache miss, where it replaces a full place-and-route.
 */

#ifndef PLAST_SERVE_STORE_HPP
#define PLAST_SERVE_STORE_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/status.hpp"
#include "compiler/mapper.hpp"

namespace plast::serve
{

// ---- record codec ----------------------------------------------------

/** What a record persists: the content address, the compiled fabric
 *  config (cfgio text round trip), the DRAM layout the runtime needs
 *  to stage inputs, and the mapping-report counters (diagnostics of a
 *  *successful* compile; failed compiles are never persisted). */
struct StoredConfig
{
    uint64_t pirHash = 0;
    uint64_t archHash = 0;
    std::vector<Addr> dramBase;
    compiler::MappingReport report; ///< ok + numeric counters only
    FabricConfig fabric;
};

/** Fixed binary header in front of every record payload. */
struct RecordHeader
{
    static constexpr char kMagic[9] = "PLASTCC\n"; ///< 8 bytes on disk
    /** v2: the embedded config is `fabriccfg 2` and the content
     *  address hashes the .pcfg params walk. */
    static constexpr uint32_t kVersion = 2;
    static constexpr size_t kSize = 8 + 4 + 4 + 8 + 8; ///< 32 bytes

    uint32_t version = kVersion;
    uint32_t flags = 0; ///< reserved, must be zero
    uint64_t payloadLen = 0;
    uint64_t checksum = 0; ///< fnv1a64 over the payload bytes
};

/** header + payload, ready for an atomic publish. */
std::string encodeRecord(const StoredConfig &rec);

/**
 * Validate and parse a record image. Typed failures, never a crash:
 * kCorrupt for a truncated header/payload, bad magic, checksum
 * mismatch, version mismatch or an unparseable payload (each with a
 * distinct message). On success the content address inside the
 * payload is authoritative — callers cross-check it against the
 * filename they read from.
 */
Status decodeRecord(const std::string &bytes, StoredConfig &out);

/** Rebuild the frozen compile result a config-cache hit adopts. */
std::shared_ptr<const compiler::MapResult>
toMapResult(StoredConfig &&rec);

/** Capture the persistable slice of a finished compile. */
StoredConfig makeStoredConfig(uint64_t pirHash, uint64_t archHash,
                              const compiler::MapResult &map);

// ---- fault-injection seam --------------------------------------------

/** Where in the publish path a planned IO fault strikes. */
enum class StoreFault : uint8_t
{
    kNone,
    kShortWrite,          ///< only N payload bytes reach the temp file
    kEioWrite,            ///< write() fails outright (EIO style)
    kFailFsync,           ///< file fsync fails
    kFailRename,          ///< rename into the final name fails
    kCrashAfterTempWrite, ///< "process dies" after writing the temp,
                          ///< before fsync — torn temp left behind
    kCrashBeforeRename,   ///< dies after fsync, before rename —
                          ///< complete temp left behind, never visible
};

/** One-shot, like resilience::FaultEvent: fires on the Nth publish
 *  attempt and never again. */
struct StoreFaultPlan
{
    StoreFault kind = StoreFault::kNone;
    uint32_t onNthWrite = 1; ///< 1-based publish ordinal it strikes
    size_t shortBytes = 16;  ///< bytes written for kShortWrite
    bool fired = false;
};

// ---- the store -------------------------------------------------------

enum class StoreMode : uint8_t
{
    kReadWrite, ///< owns the LOCK; full service
    kReadOnly,  ///< another live daemon owns the LOCK; probes only
    kDisabled,  ///< directory unusable; every op is a typed no-op
};

const char *storeModeName(StoreMode m);

struct StoreOptions
{
    std::string dir;
    uint64_t maxBytes = 0; ///< 0 = unbounded; else evict oldest
};

struct StoreStats
{
    uint64_t hits = 0;   ///< load() served a valid record
    uint64_t misses = 0; ///< load() found nothing (includes corrupt)
    uint64_t writes = 0; ///< records published
    uint64_t writeFailures = 0;      ///< publish attempts that failed
    uint64_t corruptQuarantined = 0; ///< records moved to quarantine/
    uint64_t evicted = 0;            ///< records removed by the cap
    uint64_t fallback = 0; ///< ops degraded to in-memory-only
    uint64_t tmpReclaimed = 0; ///< crash leftovers removed at open
    uint64_t bytes = 0;        ///< live record bytes on disk
    size_t records = 0;
    StoreMode mode = StoreMode::kDisabled;
};

class ConfigStore
{
  public:
    /**
     * Open (and recover) a store rooted at opts.dir. NEVER fails hard
     * and never blocks the caller on a bad directory: an unusable
     * path yields a kDisabled store, a foreign live LOCK yields
     * kReadOnly, and `why` (when non-null) receives the typed reason
     * for any degradation. Always returns a non-null store.
     */
    static std::unique_ptr<ConfigStore> open(StoreOptions opts,
                                             Status *why = nullptr);

    ~ConfigStore(); ///< flush write-behind, release the lock

    ConfigStore(const ConfigStore &) = delete;
    ConfigStore &operator=(const ConfigStore &) = delete;

    StoreMode mode() const { return mode_; }
    const std::string &dir() const { return opts_.dir; }

    /**
     * Probe for a persisted compile. kOk fills `out`; kNotFound is a
     * clean miss; kCorrupt means the record failed validation and was
     * quarantined (the caller compiles as if missing — and its
     * re-persist repairs the store); kUnavailable when disabled.
     */
    Status load(uint64_t pirHash, uint64_t archHash, StoredConfig &out);

    /**
     * Persist a successful compile. Write-behind: enqueues and
     * returns immediately (the single-flight builder is the only
     * caller per key, so the hot path never blocks on fsync). Dropped
     * with a fallback count when the store is not writable.
     */
    void persist(uint64_t pirHash, uint64_t archHash,
                 std::shared_ptr<const compiler::MapResult> map);

    /** Block until every enqueued persist has been published (or
     *  failed). Called by tests and at orderly shutdown. */
    void flush();

    StoreStats stats() const;

    /** Arm the one-shot IO fault seam (tests only). */
    void setFaultPlan(StoreFaultPlan plan);

  private:
    ConfigStore() = default;

    struct PendingWrite
    {
        uint64_t pirHash = 0;
        uint64_t archHash = 0;
        std::shared_ptr<const compiler::MapResult> map;
    };
    struct IndexEntry
    {
        std::string file; ///< basename within dir
        uint64_t bytes = 0;
        uint64_t seq = 0; ///< eviction order (scan mtime, then writes)
    };

    bool acquireLock(Status *why);
    void releaseLock();
    void recoveryScan();
    void writerLoop();
    /** The atomic publish protocol; returns false on any IO failure
     *  (temp cleaned up, counted). */
    bool publish(const PendingWrite &w);
    void enforceCap();
    void quarantine(const std::string &file, const std::string &why);
    std::string recordPath(const std::string &file) const;
    static std::string recordName(uint64_t pirHash, uint64_t archHash);
    /** Consume the armed fault if it matches this publish ordinal. */
    StoreFault takeFault(uint64_t ordinal, size_t *shortBytes);

    StoreOptions opts_;
    StoreMode mode_ = StoreMode::kDisabled;
    bool lockOwned_ = false;

    mutable std::mutex mu_;
    std::map<std::pair<uint64_t, uint64_t>, IndexEntry> index_;
    uint64_t bytes_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writes_ = 0;
    uint64_t writeFailures_ = 0;
    uint64_t corruptQuarantined_ = 0;
    uint64_t evicted_ = 0;
    uint64_t fallback_ = 0;
    uint64_t tmpReclaimed_ = 0;
    uint64_t publishOrdinal_ = 0;
    StoreFaultPlan fault_;

    std::mutex qmu_;
    std::condition_variable qcv_;   ///< writer wakeup
    std::condition_variable idle_;  ///< flush() wakeup
    std::deque<PendingWrite> queue_;
    bool closing_ = false;
    uint32_t inFlight_ = 0;
    std::thread writer_;
};

} // namespace plast::serve

#endif // PLAST_SERVE_STORE_HPP

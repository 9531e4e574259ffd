/**
 * @file
 * The content-addressed, single-flight LRU cache underneath the serve
 * daemon. Two instantiations exist:
 *
 *   ConfigCache  (pirHash, archHash)            -> compiled MapResult
 *   ResultCache  (pirHash, archHash, inputsHash,
 *                 optionsHash)                  -> finished JobOutcome
 *
 * Keys are FNV-1a 64-bit hashes over the same canonical text
 * serializations the run-manifest layer uses (runtime/manifest.hpp):
 * programToText for programs, archParamsText for parameters — so a
 * manifest's (pir_hash, arch_hash) pair IS the config cache address,
 * byte-for-byte, and the hash-stability goldens in
 * tests/test_serve.cpp tie both layers together.
 *
 * Semantics:
 *
 *  - single-flight: the first thread to miss a key inserts a pending
 *    entry and builds the value outside the lock; every concurrent
 *    requester of the same key blocks until the build completes and
 *    then counts as a HIT (it did not pay for the build — which is
 *    the entire point: identical kernels never pay place-and-route
 *    twice, identical jobs never simulate twice).
 *  - deterministic accounting: every acquire() is assigned a sequence
 *    number under the cache lock (Acquired::seq, which the server
 *    records as JobResult::seq); replaying the jobs serially in seq
 *    order through a fresh cache of the same capacity reproduces the
 *    hit/miss sequence exactly (the deterministic-replay test,
 *    joblog.hpp). Eviction decisions happen at miss time (placeholder
 *    insertion), not at build completion, precisely so the access
 *    order fully determines them.
 *  - LRU eviction: capacity is counted in entries; pending entries are
 *    pinned (they cannot be evicted while a builder or waiters hold
 *    them). When every entry is pending the cache may transiently
 *    exceed capacity rather than deadlock — sized-below-worker-count
 *    caches are a configuration smell, not a crash.
 *  - negative caching: failed builds (e.g. compile errors) are cached
 *    like successes. The simulator stack is deterministic, so a
 *    failure is as content-addressable as a config; duplicate bad
 *    programs should not recompile either.
 *  - abandonment + handoff: a builder may return null to ABANDON the
 *    build (a cancelled or deadline-expired job must never publish its
 *    wall-clock-dependent outcome as the key's cached value). When the
 *    leader abandons, the single-flight slot is handed to a waiting
 *    follower — which runs its own builder — so a cancellation never
 *    poisons the key for healthy requesters; with no waiters the
 *    placeholder is erased and the next acquire is a fresh miss.
 *    Followers holding a CancelToken can likewise give up waiting
 *    (Acquired::gaveUp) when their own budget expires mid-wait.
 */

#ifndef PLAST_SERVE_CACHE_HPP
#define PLAST_SERVE_CACHE_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "base/cancel.hpp"
#include "base/profile.hpp"

namespace plast::serve
{

/** Up-to-four-part content address; unused parts stay zero. */
struct CacheKey
{
    uint64_t pir = 0;     ///< fnv1a64(programToText(prog))
    uint64_t arch = 0;    ///< fnv1a64(archParamsText(params))
    uint64_t inputs = 0;  ///< fnv1a64(staged input image); 0 for configs
    uint64_t options = 0; ///< fnv1a64(execution-mode text); 0 for configs

    bool
    operator<(const CacheKey &o) const
    {
        if (pir != o.pir)
            return pir < o.pir;
        if (arch != o.arch)
            return arch < o.arch;
        if (inputs != o.inputs)
            return inputs < o.inputs;
        return options < o.options;
    }
    bool
    operator==(const CacheKey &o) const
    {
        return pir == o.pir && arch == o.arch && inputs == o.inputs &&
               options == o.options;
    }
};

struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t abandoned = 0; ///< builds that returned null (cancelled)
    size_t size = 0;
    size_t capacity = 0;
};

template <typename V>
class SingleFlightCache
{
  public:
    using ValuePtr = std::shared_ptr<const V>;
    using Builder = std::function<ValuePtr()>;

    /** `capacity` in entries (min 1). */
    explicit SingleFlightCache(size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    struct Acquired
    {
        ValuePtr value;
        bool hit = false;
        bool gaveUp = false; ///< follower left the wait (token fired)
        uint64_t seq = 0;    ///< global cache-access sequence number
    };

    /**
     * Look up `key`; on miss, run `build` (outside the lock — builds
     * of distinct keys proceed in parallel) and publish the value.
     * Concurrent requesters of a key being built block and return the
     * published value as a hit.
     *
     * A null return from `build` abandons the entry instead of
     * publishing it (see the header comment); the caller gets a null
     * value and must produce its own, uncached outcome. A non-null
     * `cancel` lets a blocked follower give up waiting once its token
     * fires — it returns with gaveUp set and a null value.
     */
    Acquired
    acquire(const CacheKey &key, const Builder &build,
            const CancelToken *cancel = nullptr)
    {
        Acquired out;
        std::unique_lock<std::mutex> lk(mu_);
        out.seq = nextSeq_++;
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            Entry &e = it->second;
            ++hits_;
            out.hit = true;
            touch(key, e);
            if (e.ready) {
                out.value = e.value;
                return out;
            }
            // Pending: wait for the leader to publish — or to abandon,
            // in which case one follower inherits the build slot.
            ++e.waiters;
            for (;;) {
                if (cancel) {
                    // Sliced wait so an expiring token is noticed even
                    // when no notify arrives.
                    ready_.wait_for(
                        lk, std::chrono::milliseconds(5),
                        [&e] { return e.ready || !e.building; });
                } else {
                    ready_.wait(lk,
                                [&e] { return e.ready || !e.building; });
                }
                if (e.ready) {
                    --e.waiters;
                    out.value = e.value;
                    return out;
                }
                if (cancel &&
                    (cancel->cancelRequested() ||
                     cancel->expired(
                         HostProfiler::instance().nowUs()))) {
                    --e.waiters;
                    dropOrphan(key);
                    out.gaveUp = true;
                    return out;
                }
                if (!e.building) {
                    // Leader abandoned; this follower inherits the
                    // single-flight slot and pays for the build. The
                    // access still counts as a hit — the extra build is
                    // charged to the cancellation, not the access.
                    e.building = true;
                    --e.waiters;
                    break;
                }
            }
        } else {
            // Miss: insert the pending entry and decide eviction NOW,
            // so the access order alone determines cache contents
            // (replay determinism), then build outside the lock.
            ++misses_;
            Entry &e = entries_[key];
            e.ready = false;
            e.building = true;
            lru_.push_front(key);
            e.lruPos = lru_.begin();
            maybeEvict();
        }
        lk.unlock();

        ValuePtr built = build();

        lk.lock();
        // The entry can have been evicted only if it was ready —
        // pending entries are pinned, so it is still here.
        Entry &pub = entries_.at(key);
        if (built) {
            pub.value = built;
            pub.ready = true;
            pub.building = false;
            ready_.notify_all();
            out.value = built;
            return out;
        }
        // Abandoned: hand off to a waiter or erase the placeholder.
        ++abandoned_;
        pub.building = false;
        if (pub.waiters == 0) {
            lru_.erase(pub.lruPos);
            entries_.erase(key);
        } else {
            ready_.notify_all();
        }
        return out;
    }

    /** Value if present AND ready; null otherwise (never blocks,
     *  never counts as an access). */
    ValuePtr
    peek(const CacheKey &key) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end() || !it->second.ready)
            return nullptr;
        return it->second.value;
    }

    CacheStats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        CacheStats s;
        s.hits = hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.abandoned = abandoned_;
        s.size = entries_.size();
        s.capacity = capacity_;
        return s;
    }

  private:
    struct Entry
    {
        ValuePtr value;
        bool ready = false;
        bool building = false; ///< a thread owns the build slot
        uint32_t waiters = 0;
        typename std::list<CacheKey>::iterator lruPos;
    };

    /** Erase a placeholder nobody owns and nobody waits for (the last
     *  follower gave up after the leader abandoned). */
    void
    dropOrphan(const CacheKey &key)
    {
        auto it = entries_.find(key);
        if (it == entries_.end())
            return;
        Entry &e = it->second;
        if (!e.ready && !e.building && e.waiters == 0) {
            lru_.erase(e.lruPos);
            entries_.erase(it);
        }
    }

    void
    touch(const CacheKey &key, Entry &e)
    {
        lru_.erase(e.lruPos);
        lru_.push_front(key);
        e.lruPos = lru_.begin();
    }

    void
    maybeEvict()
    {
        while (entries_.size() > capacity_) {
            // Walk from the cold end; skip pinned (pending or waited-
            // on) entries.
            auto victim = lru_.end();
            for (auto it = std::prev(lru_.end());; --it) {
                const Entry &e = entries_.at(*it);
                if (e.ready && e.waiters == 0) {
                    victim = it;
                    break;
                }
                if (it == lru_.begin())
                    break;
            }
            if (victim == lru_.end())
                return; // everything pinned: transient overflow
            entries_.erase(*victim);
            lru_.erase(victim);
            ++evictions_;
        }
    }

    const size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable ready_;
    std::map<CacheKey, Entry> entries_;
    std::list<CacheKey> lru_; ///< front = most recently used
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t abandoned_ = 0;
    uint64_t nextSeq_ = 0;
};

} // namespace plast::serve

#endif // PLAST_SERVE_CACHE_HPP

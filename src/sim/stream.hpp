/**
 * @file
 * Statically routed streams: the simulator's model of one configured bus
 * on the scalar / vector / control network (§3.3).
 *
 * A stream is a pipeline of `latency` switch-hop registers feeding a
 * receiver FIFO of `capacity` entries. Producers see two-phase
 * semantics: pushes and pops staged during evaluate() become visible at
 * commit(), matching synchronous RTL. A stream sustains one element per
 * cycle; backpressure appears when in-flight + queued elements reach
 * latency + capacity.
 *
 * Control channels are Stream<Token> with optional pre-loaded tokens,
 * which is how credits (§3.5) are expressed: a credit is a token on a
 * reverse channel with a nonzero initial count.
 *
 * Streams are SimObjects: under the activity-driven scheduler a stream
 * commits only on cycles where traffic was staged or an in-flight
 * element is due to arrive; each commit reports delivery/drain effects
 * so the scheduler can wake the consumer/producer unit, and re-arms a
 * timer for the next pending arrival.
 */

#ifndef PLAST_SIM_STREAM_HPP
#define PLAST_SIM_STREAM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hpp"
#include "base/ring.hpp"
#include "base/stateio.hpp"
#include "base/types.hpp"
#include "sim/scheduler.hpp"
#include "sim/simobject.hpp"

namespace plast
{

/** A unit control pulse. */
struct Token
{
};

/** Tokens carry no payload — nothing on the checkpoint tape. */
template <class Ar>
void
io(Ar &, Token &)
{
}

/** Untyped stream interface: endpoint binding, statistics, and the
 *  scheduler bookkeeping shared by all element types. */
class StreamBase : public SimObject
{
  public:
    StreamBase(std::string name, uint32_t latency, uint32_t capacity)
        : name_(std::move(name)), latency_(latency == 0 ? 1 : latency),
          capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    const std::string &name() const { return name_; }
    uint32_t latency() const { return latency_; }

    struct Stats
    {
        uint64_t pushes = 0; ///< elements staged by the producer
        uint64_t pops = 0;   ///< elements consumed
        /** Max in-flight + queued occupancy ever observed. */
        uint64_t peakOccupancy = 0;
        /** Total element-cycles spent stalled behind a full receiver
         *  FIFO (cycles delivered past the unobstructed arrival). */
        uint64_t fullStallCycles = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, pushes);
            io(ar, pops);
            io(ar, peakOccupancy);
            io(ar, fullStallCycles);
        }
    };
    const Stats &stats() const { return stats_; }

    /** Endpoint binding (wake routing; set by the fabric). */
    void bindProducer(SimObject *u) { producer_ = u; }
    void bindConsumer(SimObject *u) { consumer_ = u; }
    void bindHostSlot(int32_t slot) { hostSlot_ = slot; }
    SimObject *producer() const { return producer_; }
    SimObject *consumer() const { return consumer_; }

    virtual bool quiescent() const = 0;
    /** Receiver-FIFO elements currently poppable (diagnostics). */
    virtual size_t available() const = 0;

  protected:
    /** Request a commit at the next commit phase (push/pop staged). */
    void
    markDirty()
    {
        if (sched())
            sched()->streamDirty(this);
    }

    std::string name_;
    uint32_t latency_;
    uint32_t capacity_;
    Stats stats_;
    /** Last occupancy traced, so counter samples fire on change only. */
    uint64_t lastTracedOcc_ = 0;

  private:
    friend class Scheduler;
    SimObject *producer_ = nullptr;
    SimObject *consumer_ = nullptr;
    int32_t hostSlot_ = -1;     ///< argOut slot when host-bound
    bool inDirty_ = false;      ///< queued for the next commit phase
    Cycles armedAt_ = kNeverCycle; ///< pending arrival timer cycle
};

template <typename T>
class Stream : public StreamBase
{
  public:
    using StreamBase::StreamBase;

    /** Producer side: may we push this cycle? */
    bool
    canPush() const
    {
        return ring_.size() < latency_ + capacity_;
    }

    /** Stage a push; the element arrives `latency` cycles later. */
    void
    push(const T &v)
    {
        panic_if(!canPush(), "stream %s: push on full stream",
                 name_.c_str());
        ring_.push_slot().value = v; // arrival is stamped at commit
        ++stagedPushes_;
        ++stats_.pushes;
        markDirty();
    }

    /** Consumer side: is an element available this cycle? */
    bool
    canPop() const
    {
        return delivered_ > stagedPops_;
    }

    size_t
    available() const override
    {
        return canPop() ? delivered_ - stagedPops_ : 0;
    }

    const T &
    front() const
    {
        panic_if(!canPop(), "stream %s: front on empty stream",
                 name_.c_str());
        return ring_[stagedPops_].value;
    }

    void
    pop()
    {
        panic_if(!canPop(), "stream %s: pop on empty stream",
                 name_.c_str());
        ++stagedPops_;
        ++stats_.pops;
        markDirty();
    }

    /** Seed tokens (credits) before simulation starts. */
    void
    preload(const T &v)
    {
        panic_if(delivered_ != ring_.size(),
                 "stream %s: preload behind in-flight traffic",
                 name_.c_str());
        ring_.push_slot().value = v;
        ++delivered_;
    }

    /** Commit phase: apply staged pops/pushes and advance arrivals.
     *  Elements never move: pops drop ring heads, pushes get their
     *  arrival stamped in place, and delivery grows the FIFO segment. */
    CommitResult
    commit(Cycles now) override
    {
        CommitResult res;
        if (stagedPops_ > 0)
            res.drained = true;
        for (; stagedPops_ > 0; --stagedPops_, --delivered_)
            ring_.pop_front();
        for (size_t i = ring_.size() - stagedPushes_; i < ring_.size(); ++i)
            ring_[i].arrival = now + latency_;
        stagedPushes_ = 0;
        while (delivered_ < ring_.size() &&
               ring_[delivered_].arrival <= now + 1 &&
               delivered_ < capacity_) {
            stats_.fullStallCycles += now + 1 - ring_[delivered_].arrival;
            ++delivered_;
            res.delivered = true;
        }
        uint64_t occ = ring_.size();
        if (occ > stats_.peakOccupancy)
            stats_.peakOccupancy = occ;
        if (trace_ && occ != lastTracedOcc_) {
            lastTracedOcc_ = occ;
            traceCounter(trace_, traceTrack_, TraceName::kOccupancy,
                         now + 1, occ);
        }
        // A stalled arrival (due but the FIFO is full) needs no timer:
        // the consumer's pop dirties the stream and the same commit
        // both frees the slot and delivers the element.
        if (delivered_ < ring_.size() &&
            ring_[delivered_].arrival > now + 1)
            res.nextArrival = ring_[delivered_].arrival - 1;
        return res;
    }

    bool
    quiescent() const override
    {
        return ring_.empty();
    }

    /**
     * Fault injection: silently lose one element (a switch-register
     * upset swallowing a token). Prefers the delivered queue. Returns
     * false when the stream is empty.
     */
    bool
    injectDrop()
    {
        if (delivered_ > 0) {
            ring_.pop_front();
            --delivered_;
            return true;
        }
        if (inFlightEnd() > delivered_) {
            ring_.pop_front();
            return true;
        }
        return false;
    }

    /** Fault injection: replay one element. While the receiver FIFO
     *  has room its head is duplicated onto its tail; otherwise the
     *  last in-flight element is re-sent right behind itself. */
    bool
    injectDuplicate()
    {
        if (delivered_ > 0 && delivered_ < capacity_) {
            insertAt(delivered_, ring_[0]);
            ++delivered_;
            return true;
        }
        if (inFlightEnd() > delivered_) {
            insertAt(inFlightEnd(), ring_[inFlightEnd() - 1]);
            return true;
        }
        return false;
    }

    /**
     * Checkpoint the stream. Only legal at a cycle boundary, where
     * staged traffic is provably empty (every push/pop commits in the
     * same cycle it was staged). The tape holds the in-flight segment
     * ({arrival, value} each), then the receiver FIFO (values), each
     * prefixed by its length.
     */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        panic_if(stagedPushes_ != 0 || stagedPops_ != 0,
                 "stream %s: checkpoint with staged traffic",
                 name_.c_str());
        uint64_t flying = ring_.size() - delivered_;
        io(ar, flying);
        if constexpr (Ar::kSaving) {
            for (size_t i = delivered_; i < ring_.size(); ++i)
                io(ar, ring_[i]);
            uint64_t fifo = delivered_;
            io(ar, fifo);
            for (size_t i = 0; i < delivered_; ++i)
                io(ar, ring_[i].value);
        } else {
            std::vector<Item> inFlight(flying);
            for (Item &it : inFlight)
                io(ar, it);
            uint64_t fifo = 0;
            io(ar, fifo);
            ring_.clear();
            ring_.resize(fifo);
            for (size_t i = 0; i < fifo; ++i)
                io(ar, ring_[i].value);
            delivered_ = fifo;
            for (Item &it : inFlight)
                ring_.push_back(std::move(it));
        }
        io(ar, stats_);
    }

  private:
    /** One element. `arrival` is stamped at commit and is meaningful
     *  only while the element is in flight. */
    struct Item
    {
        Cycles arrival = 0;
        T value;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, arrival);
            io(ar, value);
        }
    };

    /** End of the in-flight segment (staged pushes follow it). */
    size_t inFlightEnd() const { return ring_.size() - stagedPushes_; }

    /** Insert a copy of `it` before ring index `idx` (fault path). */
    void
    insertAt(size_t idx, Item it)
    {
        ring_.push_back(it);
        for (size_t i = ring_.size() - 1; i > idx; --i)
            ring_[i] = ring_[i - 1];
        ring_[idx] = std::move(it);
    }

    /**
     * Every element, front to back: the first `delivered_` items are
     * the receiver FIFO (the first `stagedPops_` of them already
     * popped this cycle), then the in-flight items in arrival order,
     * then the last `stagedPushes_` items pushed this cycle.
     */
    Ring<Item> ring_;
    size_t delivered_ = 0;
    uint32_t stagedPushes_ = 0;
    uint32_t stagedPops_ = 0;
};

using ScalarStream = Stream<Word>;
using VectorStream = Stream<Vec>;
using ControlStream = Stream<Token>;

} // namespace plast

#endif // PLAST_SIM_STREAM_HPP

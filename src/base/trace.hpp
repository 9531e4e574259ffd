/**
 * @file
 * Low-overhead event-trace sink for the cycle simulator.
 *
 * Components emit three record kinds into a fixed-capacity ring buffer
 * (oldest records are overwritten once the ring is full, with a drop
 * count):
 *
 *   span     a [begin, end) interval on a track (unit runs); spans on
 *            one track never overlap, so viewers nest them by
 *            containment;
 *   async    an interval that may overlap others on the same track
 *            (in-flight wavefronts, outstanding DRAM commands/bursts),
 *            keyed by an id;
 *   instant  a point event (token handshakes, sleep/wake transitions);
 *   counter  a sampled value (FIFO occupancy, scheduler active set).
 *
 * Records are 32-byte PODs with table-indexed names, so an emission is
 * a bounds check and a struct store; with tracing disabled no sink
 * exists and an emission is a null-pointer check.
 *
 * The ring exports Chrome trace-event JSON ("X"/"b"/"e"/"i"/"C"
 * phases, one thread per track), which Perfetto and chrome://tracing
 * load directly; the cycle number is written as the microsecond
 * timestamp, so 1 displayed us == 1 fabric cycle.
 */

#ifndef PLAST_BASE_TRACE_HPP
#define PLAST_BASE_TRACE_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace plast
{

class HostProfiler;

/** Fixed event-name table (no per-event string handling). */
enum class TraceName : uint16_t
{
    kRun,       ///< one execution run of a unit (token to done)
    kWavefront, ///< one wavefront's flight through a PCU pipeline
    kIteration, ///< an outer-loop iteration issued by a control box
    kDramCmd,   ///< an AG command outstanding at the memory system
    kBurst,     ///< a DRAM burst from coalescer issue to completion
    kTokens,    ///< control tokens consumed to start a run
    kDone,      ///< done tokens pushed at run completion
    kSleep,     ///< scheduler dropped the unit from the active set
    kWake,      ///< scheduler re-armed the unit
    kOccupancy, ///< stream receiver-FIFO + in-flight occupancy
    kActiveSet, ///< scheduler active-set size
    kOutstanding, ///< coalescing-unit outstanding bursts
    kCount,
};

const char *traceNameStr(TraceName n);

/** Trace tuning knobs (part of SimOptions). Every stream gets its own
 *  occupancy counter track. */
struct TraceOptions
{
    /** Ring capacity in events (32 B each). */
    static constexpr size_t kCapacity = 1u << 20;

    /** Master switch; no sink is created (and no overhead is paid)
     *  when false. */
    bool enabled = false;
    /** Utilization time-series sampling period in cycles (0 = off). */
    uint32_t epochCycles = 1024;
};

class TraceSink
{
  public:
    enum class Kind : uint8_t
    {
        kSpan,    ///< complete "X" event: [ts, ts+dur)
        kAsync,   ///< overlapping "b"/"e" pair keyed by `aux2` id
        kInstant, ///< "i" event at ts
        kCounter, ///< "C" event: value `aux` at ts
    };

    struct Event
    {
        Cycles ts = 0;
        uint64_t aux = 0;  ///< span/async: duration; counter: value
        uint64_t aux2 = 0; ///< async: interval id
        uint16_t track = 0;
        TraceName name = TraceName::kRun;
        Kind kind = Kind::kInstant;
    };

    explicit TraceSink(size_t capacity);

    /** Register a display track (a unit, stream, or subsystem). */
    uint16_t addTrack(const std::string &name);
    const std::vector<std::string> &tracks() const { return tracks_; }

    void
    span(uint16_t track, TraceName name, Cycles begin, Cycles end)
    {
        push({begin, end - begin, 0, track, name, Kind::kSpan});
    }

    void
    async(uint16_t track, TraceName name, Cycles begin, Cycles end,
          uint64_t id)
    {
        push({begin, end - begin, id, track, name, Kind::kAsync});
    }

    void
    instant(uint16_t track, TraceName name, Cycles ts)
    {
        push({ts, 0, 0, track, name, Kind::kInstant});
    }

    void
    counter(uint16_t track, TraceName name, Cycles ts, uint64_t value)
    {
        push({ts, value, 0, track, name, Kind::kCounter});
    }

    /** Events currently held (<= capacity). */
    size_t size() const;
    size_t capacity() const { return cap_; }
    /** Events overwritten after the ring filled. */
    uint64_t dropped() const { return dropped_; }

    /** Visit retained events oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        size_t n = size();
        size_t start = wrapped_ ? next_ : 0;
        for (size_t i = 0; i < n; ++i)
            fn(buf_[(start + i) % cap_]);
    }

    /** Chrome trace-event JSON (Perfetto / chrome://tracing). The
     *  simulated-cycle events render as process 1; when `host` is
     *  non-null its wall-clock phase spans are appended as process 2,
     *  giving one timeline with both time bases side by side. */
    void writeChromeJson(std::ostream &os,
                         const HostProfiler *host = nullptr) const;

  private:
    void
    push(const Event &e)
    {
        if (buf_.size() < cap_) {
            buf_.push_back(e);
        } else {
            buf_[next_] = e;
            wrapped_ = true;
            ++dropped_;
        }
        next_ = (next_ + 1) % cap_;
    }

    size_t cap_;
    std::vector<Event> buf_;
    size_t next_ = 0;
    bool wrapped_ = false;
    uint64_t dropped_ = 0;
    std::vector<std::string> tracks_;
};

// ---- emit helpers --------------------------------------------------
// All instrumentation sites go through these; a null sink (tracing
// disabled) makes each one a single branch.

inline void
traceSpan(TraceSink *s, uint16_t track, TraceName n, Cycles b, Cycles e)
{
    if (s)
        s->span(track, n, b, e);
}

inline void
traceAsync(TraceSink *s, uint16_t track, TraceName n, Cycles b, Cycles e,
           uint64_t id)
{
    if (s)
        s->async(track, n, b, e, id);
}

inline void
traceInstant(TraceSink *s, uint16_t track, TraceName n, Cycles ts)
{
    if (s)
        s->instant(track, n, ts);
}

inline void
traceCounter(TraceSink *s, uint16_t track, TraceName n, Cycles ts,
             uint64_t value)
{
    if (s)
        s->counter(track, n, ts, value);
}

} // namespace plast

#endif // PLAST_BASE_TRACE_HPP

#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>

#include "sim/memsys.hpp"
#include "sim/stream.hpp"

namespace plast
{

void
Scheduler::addUnit(SimObject *u)
{
    u->sched_ = this;
    u->seq_ = nextSeq_++;
    u->inRun_ = true;
    run_.push_back(u);
    allUnits_.push_back(u);
}

void
Scheduler::addMem(MemSystem *m)
{
    m->sched_ = this;
    m->seq_ = nextSeq_++;
    mem_ = m;
}

void
Scheduler::addStream(StreamBase *s)
{
    s->sched_ = this;
    s->seq_ = nextSeq_++;
    allStreams_.push_back(s);
}

void
Scheduler::rearmAll()
{
    for (SimObject *u : allUnits_)
        u->wakeQueued_ = false;
    wakePending_.clear();
    run_ = allUnits_; // registration order == seq order
    for (SimObject *u : run_)
        u->inRun_ = true;
    dirty_.clear();
    for (std::vector<Timer> &bucket : wheel_)
        bucket.clear();
    wheelBits_ = 0;
    for (StreamBase *s : allStreams_)
    {
        s->inDirty_ = false;
        s->armedAt_ = kNeverCycle;
        streamDirty(s);
    }
    // The memory phase runs next cycle and re-derives its next event.
    memWork_ = mem_ != nullptr;
}

bool
Scheduler::bySeq(const SimObject *a, const SimObject *b)
{
    return a->seq_ < b->seq_;
}

void
Scheduler::wakeNow(SimObject *u)
{
    if (u->inRun_)
        return;
    u->inRun_ = true;
    run_.insert(std::upper_bound(run_.begin(), run_.end(), u, bySeq), u);
}

void
Scheduler::unitStuck(SimObject *u)
{
    wakeNow(u);
    if (mem_)
        mem_->unitStuck();
}

void
Scheduler::streamDirty(StreamBase *s)
{
    if (s->inDirty_)
        return;
    s->inDirty_ = true;
    dirty_.push_back(s);
}

void
Scheduler::scheduleArrival(Cycles cycle, StreamBase *s)
{
    if (s->armedAt_ == cycle)
        return;
    s->armedAt_ = cycle;
    const auto b = static_cast<uint32_t>(cycle % kWheelSize);
    wheel_[b].push_back({cycle, s});
    wheelBits_ |= uint64_t{1} << b;
}

/** Fire this cycle's bucket in scheduling order; an entry a whole turn
 *  or more ahead stays behind for its own cycle. */
void
Scheduler::fireTimers(Cycles now)
{
    const auto b = static_cast<uint32_t>(now % kWheelSize);
    if (!((wheelBits_ >> b) & 1))
        return;
    std::vector<Timer> &bucket = wheel_[b];
    size_t keep = 0;
    for (size_t i = 0; i < bucket.size(); ++i) {
        const Timer t = bucket[i];
        if (t.cycle > now) {
            bucket[keep++] = t;
            continue;
        }
        if (t.stream->armedAt_ == t.cycle)
            t.stream->armedAt_ = kNeverCycle;
        streamDirty(t.stream);
    }
    bucket.resize(keep);
    if (keep == 0)
        wheelBits_ &= ~(uint64_t{1} << b);
}

/** Exact earliest timer. Every pending timer is due after curCycle_, so
 *  walking the non-empty buckets from the next cycle's, the first entry
 *  due within this turn is the earliest; entries a turn or more ahead
 *  decide only when no bucket holds one. */
Cycles
Scheduler::nextTimer() const
{
    const Cycles from = curCycle_ + 1;
    const int start = static_cast<int>(from % kWheelSize);
    Cycles far = kNeverCycle;
    for (uint64_t bits = std::rotr(wheelBits_, start); bits; bits &= bits - 1) {
        const Cycles at = from + std::countr_zero(bits);
        for (const Timer &t : wheel_[at % kWheelSize]) {
            if (t.cycle == at)
                return at;
            far = std::min(far, t.cycle);
        }
    }
    return far;
}

void
Scheduler::applyWakes()
{
    if (wakePending_.empty())
        return;
    bool added = false;
    for (SimObject *u : wakePending_) {
        u->wakeQueued_ = false;
        if (!u->inRun_) {
            u->inRun_ = true;
            run_.push_back(u);
            added = true;
        }
    }
    wakePending_.clear();
    if (added)
        std::sort(run_.begin(), run_.end(), bySeq);
}

void
Scheduler::runCycle(Cycles now)
{
    curCycle_ = now;

    // Due arrival timers feed this cycle's commit phase.
    fireTimers(now);

    // Phase 1: evaluate awake units in deterministic order. A unit is
    // dropped from the active set the moment it reports kBlocked; wake
    // events queued during its own evaluate (memory-submit retry) are
    // honored via wakeQueued_.
    progress_ = false;
    size_t keep = 0;
    for (size_t i = 0; i < run_.size(); ++i) {
        SimObject *u = run_[i];
        u->inRun_ = false;
        Activity a = u->evaluate(now);
        if (a == Activity::kActive) {
            u->inRun_ = true;
            run_[keep++] = u;
            progress_ = true;
        } else {
            traceInstant(trace_, u->traceTrack(), TraceName::kSleep, now);
        }
    }
    run_.resize(keep);

    // Phase 2: the memory system (coalescing units + DRAM timing) runs
    // on submit cycles and on its next event. On the cycles between,
    // dense ticking's memory step changes nothing but still reports the
    // non-quiescent memory as progress.
    if (mem_ && (memWork_ || memNextAt_ <= now)) {
        memWork_ = false;
        mem_->step(now);
        memNextAt_ = mem_->nextEvent(now);
    }
    if (memNextAt_ != kNeverCycle)
        progress_ = true;

    // Phase 3: commit dirty streams; route wakes. Dirt created from
    // here on (e.g. host-sink pops) belongs to the next cycle.
    deliveredHost_.clear();
    commitRun_.swap(dirty_);
    for (StreamBase *s : commitRun_)
        s->inDirty_ = false;
    for (StreamBase *s : commitRun_) {
        CommitResult r = s->commit(now);
        if (r.delivered) {
            if (s->consumer_)
                wakeUnit(s->consumer_);
            if (s->hostSlot_ >= 0)
                deliveredHost_.push_back(s);
        }
        if (r.drained && s->producer_)
            wakeUnit(s->producer_);
        if (r.nextArrival != kNeverCycle)
            scheduleArrival(r.nextArrival, s);
    }
    commitRun_.clear();

    applyWakes();

    if (trace_ && run_.size() != lastActiveSet_) {
        lastActiveSet_ = run_.size();
        trace_->counter(traceTrack_, TraceName::kActiveSet, now,
                        run_.size());
    }
}

} // namespace plast

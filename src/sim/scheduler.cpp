#include "sim/scheduler.hpp"

#include <algorithm>

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
    timers_.clear();
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

namespace
{
struct TimerAfter
{
    bool
    operator()(const std::pair<Cycles, StreamBase *> &a,
               const std::pair<Cycles, StreamBase *> &b) const
    {
        return a.first > b.first;
    }
};
} // namespace

void
Scheduler::scheduleArrival(Cycles cycle, StreamBase *s)
{
    if (s->armedAt_ == cycle)
        return;
    s->armedAt_ = cycle;
    timers_.emplace_back(cycle, s);
    std::push_heap(timers_.begin(), timers_.end(), TimerAfter{});
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
    while (!timers_.empty() && timers_.front().first <= now) {
        std::pop_heap(timers_.begin(), timers_.end(), TimerAfter{});
        auto [cycle, s] = timers_.back();
        timers_.pop_back();
        if (s->armedAt_ == cycle)
            s->armedAt_ = kNeverCycle;
        streamDirty(s);
    }

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

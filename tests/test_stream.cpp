/** @file Routed-stream semantics: latency, capacity backpressure,
 *  two-phase visibility, token preloading, and the contract of the
 *  fault hooks and checkpoint tape. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "base/stateio.hpp"
#include "sim/stream.hpp"

using namespace plast;

TEST(Stream, LatencyDelaysArrival)
{
    ScalarStream s("t", /*latency=*/3, /*capacity=*/4);
    Cycles now = 0;
    s.push(42);
    for (int i = 0; i < 3; ++i) {
        s.commit(now++);
        if (i < 2) {
            EXPECT_FALSE(s.canPop()) << "arrived early at tick " << i;
        }
    }
    ASSERT_TRUE(s.canPop());
    EXPECT_EQ(s.front(), 42u);
}

TEST(Stream, SustainsOneElementPerCycle)
{
    ScalarStream s("t", 2, 4);
    Cycles now = 0;
    int pushed = 0, popped = 0;
    for (int c = 0; c < 100; ++c) {
        if (s.canPush()) {
            s.push(static_cast<Word>(pushed));
            ++pushed;
        }
        if (s.canPop()) {
            EXPECT_EQ(s.front(), static_cast<Word>(popped));
            s.pop();
            ++popped;
        }
        s.commit(now++);
    }
    EXPECT_GE(popped, 95) << "stream throughput below ~1/cycle";
}

TEST(Stream, BackpressureWhenNotDrained)
{
    ScalarStream s("t", 1, 2);
    Cycles now = 0;
    int accepted = 0;
    for (int c = 0; c < 10; ++c) {
        if (s.canPush()) {
            s.push(1);
            ++accepted;
        }
        s.commit(now++);
    }
    // latency(1) + capacity(2) elements fit; no more.
    EXPECT_EQ(accepted, 3);
}

TEST(Stream, TwoPhase_PushInvisibleSameCycle)
{
    ScalarStream s("t", 1, 4);
    s.push(5);
    EXPECT_FALSE(s.canPop()); // not before tick
}

TEST(Stream, TwoPhase_PopCountsBeforeCommit)
{
    ScalarStream s("t", 1, 4);
    Cycles now = 0;
    s.push(1);
    s.push(2);
    s.commit(now++);
    s.commit(now++);
    ASSERT_TRUE(s.canPop());
    s.pop();
    // The staged pop hides the first element immediately.
    ASSERT_TRUE(s.canPop());
    EXPECT_EQ(s.front(), 2u);
}

TEST(Stream, PreloadTokensAvailableImmediately)
{
    ControlStream s("credits", 1, 8);
    s.preload(Token{});
    s.preload(Token{});
    EXPECT_TRUE(s.canPop());
    EXPECT_EQ(s.available(), 2u);
    s.pop();
    s.pop();
    EXPECT_FALSE(s.canPop());
}

TEST(Stream, QuiescentTracksContents)
{
    VectorStream s("v", 2, 4);
    EXPECT_TRUE(s.quiescent());
    s.push(Vec::broadcast(1, 16));
    EXPECT_FALSE(s.quiescent());
    Cycles now = 0;
    for (int i = 0; i < 4; ++i)
        s.commit(now++);
    EXPECT_FALSE(s.quiescent()); // still queued at receiver
    s.pop();
    s.commit(now++);
    EXPECT_TRUE(s.quiescent());
}

TEST(Stream, VectorPayloadIntact)
{
    VectorStream s("v", 1, 2);
    Vec v;
    for (uint32_t l = 0; l < 16; ++l) {
        v.lane[l] = l * l;
        v.setValid(l);
    }
    v.clearValid(7);
    s.push(v);
    Cycles now = 0;
    s.commit(now++);
    ASSERT_TRUE(s.canPop());
    const Vec &got = s.front();
    EXPECT_EQ(got.mask, v.mask);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(got.lane[l], l * l);
}

/** Property sweep: total delivered never exceeds pushed; order kept. */
class StreamParams
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>>
{
};

TEST_P(StreamParams, FifoOrderPreserved)
{
    auto [latency, capacity] = GetParam();
    ScalarStream s("p", latency, capacity);
    Cycles now = 0;
    Word next_push = 0, next_pop = 0;
    for (int c = 0; c < 300; ++c) {
        if ((c % 3) != 0 && s.canPush())
            s.push(next_push++);
        if ((c % 2) == 0 && s.canPop()) {
            EXPECT_EQ(s.front(), next_pop);
            s.pop();
            ++next_pop;
        }
        s.commit(now++);
    }
    EXPECT_LE(next_pop, next_push);
    EXPECT_GT(next_pop, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LatencyCapacity, StreamParams,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 16u),
                      std::make_pair(4u, 2u), std::make_pair(8u, 8u),
                      std::make_pair(16u, 1u)));

// --------------------------------------------------------------------
// Contract of the fault hooks, backpressure and checkpoints. Each test
// builds a stream whose receiver FIFO and in-flight pipeline are both
// occupied, then checks which element moves where and when.
// --------------------------------------------------------------------

namespace
{

/** A latency-3, capacity-2 stream `s` gets elements 1..5 pushed on
 *  cycles 0..4: after commit 4 the FIFO holds {1, 2} and {3, 4, 5} are
 *  in flight, with 3 already due (arrival 5) but stalled behind the
 *  full FIFO. */
void
fillFifoAndPipeline(ScalarStream &s, Cycles &now)
{
    for (Word v = 1; v <= 5; ++v) {
        s.push(v);
        s.commit(now++);
    }
}

/** Pop one element per cycle until empty; record (cycle, value). */
std::vector<std::pair<Cycles, Word>>
drain(ScalarStream &s, Cycles &now)
{
    std::vector<std::pair<Cycles, Word>> got;
    for (int guard = 0; guard < 64 && !s.quiescent(); ++guard) {
        if (s.canPop()) {
            got.emplace_back(now, s.front());
            s.pop();
        }
        s.commit(now++);
    }
    return got;
}

std::vector<Word>
values(const std::vector<std::pair<Cycles, Word>> &got)
{
    std::vector<Word> v;
    for (const auto &g : got)
        v.push_back(g.second);
    return v;
}

} // namespace

TEST(StreamContract, FixtureHasFullFifoAndInFlight)
{
    Cycles now = 0;
    ScalarStream s("f", 3, 2);
    fillFifoAndPipeline(s, now);
    EXPECT_EQ(s.available(), 2u);
    EXPECT_EQ(s.front(), 1u);
    EXPECT_FALSE(s.canPush()) << "latency + capacity = 5 elements";
    EXPECT_EQ(s.stats().peakOccupancy, 5u);
    auto got = drain(s, now);
    EXPECT_EQ(values(got), (std::vector<Word>{1, 2, 3, 4, 5}));
}

TEST(StreamContract, InjectDropLosesTheDeliveredHead)
{
    Cycles now = 0;
    ScalarStream s("f", 3, 2);
    fillFifoAndPipeline(s, now);
    ASSERT_TRUE(s.injectDrop());
    EXPECT_EQ(s.available(), 1u);
    EXPECT_EQ(s.front(), 2u);
    // The freed FIFO slot takes the stalled in-flight head at the next
    // commit, one cycle past its arrival.
    s.commit(now++);
    EXPECT_EQ(s.available(), 2u);
    EXPECT_EQ(s.stats().fullStallCycles, 1u);
    auto got = drain(s, now);
    EXPECT_EQ(values(got), (std::vector<Word>{2, 3, 4, 5}));
    EXPECT_EQ(s.stats().pushes, 5u);
    EXPECT_EQ(s.stats().pops, 4u);
}

TEST(StreamContract, InjectDropTakesTheOldestInFlightWhenFifoIsEmpty)
{
    ScalarStream s("f", 3, 2);
    Cycles now = 0;
    s.push(1);
    s.commit(now++);
    s.push(2);
    s.commit(now++);
    ASSERT_FALSE(s.canPop());
    ASSERT_TRUE(s.injectDrop());
    // 2 still arrives on its own schedule (pushed at 1, latency 3).
    s.commit(now++); // commit 2
    EXPECT_FALSE(s.canPop());
    s.commit(now++); // commit 3: arrival 4 <= 4
    ASSERT_TRUE(s.canPop());
    EXPECT_EQ(s.front(), 2u);
    s.pop();
    s.commit(now++);
    EXPECT_TRUE(s.quiescent());
    EXPECT_FALSE(s.injectDrop()) << "nothing left to lose";
}

TEST(StreamContract, InjectDuplicateReplaysHeadIntoFifoWithRoom)
{
    ScalarStream s("f", 3, 2);
    Cycles now = 0;
    for (Word v = 1; v <= 3; ++v) {
        s.push(v);
        s.commit(now++);
    }
    // FIFO {1}, in flight {2, 3}.
    ASSERT_EQ(s.available(), 1u);
    ASSERT_TRUE(s.injectDuplicate());
    EXPECT_EQ(s.available(), 2u);
    EXPECT_EQ(s.front(), 1u);
    auto got = drain(s, now);
    EXPECT_EQ(values(got), (std::vector<Word>{1, 1, 2, 3}));
}

TEST(StreamContract, InjectDuplicateReplaysInFlightTailWhenFifoIsFull)
{
    Cycles now = 0;
    ScalarStream s("f", 3, 2);
    fillFifoAndPipeline(s, now);
    ASSERT_TRUE(s.injectDuplicate());
    // Capacity is respected: the FIFO stays at two entries and the
    // replay joins the pipeline behind 5, with 5's arrival.
    EXPECT_EQ(s.available(), 2u);
    EXPECT_FALSE(s.canPush());
    auto got = drain(s, now);
    EXPECT_EQ(values(got), (std::vector<Word>{1, 2, 3, 4, 5, 5}));
    // One pop per cycle from cycle 5: the duplicate trails its
    // original by one cycle.
    ASSERT_EQ(got.size(), 6u);
    EXPECT_EQ(got[4].first + 1, got[5].first);
}

TEST(StreamContract, InjectDuplicateOnEmptyStreamIsANoop)
{
    ScalarStream s("f", 2, 2);
    EXPECT_FALSE(s.injectDuplicate());
    EXPECT_TRUE(s.quiescent());
}

TEST(StreamContract, StagedTrafficCountsTowardBackpressure)
{
    ScalarStream s("b", 2, 1);
    // Staged pushes occupy space before they commit.
    s.push(1);
    s.push(2);
    EXPECT_TRUE(s.canPush());
    s.push(3);
    EXPECT_FALSE(s.canPush()) << "latency 2 + capacity 1";
    Cycles now = 0;
    s.commit(now++);
    EXPECT_FALSE(s.canPush());
    s.commit(now++); // 1 delivered; 2 and 3 stall behind it
    ASSERT_TRUE(s.canPop());
    // A staged pop frees its slot only at commit.
    s.pop();
    EXPECT_FALSE(s.canPush());
    s.commit(now++);
    EXPECT_TRUE(s.canPush());
    EXPECT_EQ(s.front(), 2u);
    EXPECT_EQ(s.stats().pushes, 3u);
    EXPECT_EQ(s.stats().peakOccupancy, 3u);
}

TEST(StreamContract, CheckpointRoundTripsDeliveredAndInFlight)
{
    Cycles now = 0;
    ScalarStream s("f", 3, 2);
    fillFifoAndPipeline(s, now);

    StateWriter w;
    s.serializeState(w);
    // Tape layout: the in-flight segment (count, then arrival and value
    // per element), then the receiver FIFO (count, then values), then
    // the four stats words.
    const std::vector<uint64_t> want = {3, 5, 3, 6, 4, 7, 5, 2, 1, 2,
                                        5, 0, 5, 0};
    EXPECT_EQ(w.tape(), want);

    ScalarStream back("f", 3, 2);
    StateReader r(w.tape());
    back.serializeState(r);
    EXPECT_TRUE(r.exhausted());
    StateWriter w2;
    back.serializeState(w2);
    EXPECT_EQ(w2.tape(), w.tape()) << "re-save is byte-identical";

    // Both deliver the same values on the same cycles.
    Cycles nowBack = now;
    auto a = drain(s, now);
    auto b = drain(back, nowBack);
    EXPECT_EQ(a, b);
    EXPECT_EQ(values(a), (std::vector<Word>{1, 2, 3, 4, 5}));
    EXPECT_EQ(s.stats().fullStallCycles, back.stats().fullStallCycles);
}

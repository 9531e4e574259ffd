/** @file DRAM timing model: row locality, bandwidth ceilings, channel
 *  interleaving, and the memory image. */

#include <gtest/gtest.h>

#include "sim/dram.hpp"

using namespace plast;

TEST(Dram, SequentialStreamApproachesPeak)
{
    DramParams p;
    DramChannel ch(p, 0);
    // 16 row-hitting bursts: steady state one burst per tBurst.
    Cycles now = 0;
    std::vector<DramReq> done;
    uint64_t tag = 0;
    Addr addr = 0;
    while (done.size() < 64 && now < 100000) {
        if (ch.canSubmit()) {
            ch.submit({addr, false, tag++}, now);
            addr += kBurstBytes * p.channels; // stay on this channel
        }
        ch.step(now++, done);
    }
    ASSERT_EQ(done.size(), 64u);
    // 64 bursts x tBurst=5 = 320 cycles of data; allow startup slack.
    EXPECT_LT(now, 64 * p.tBurst + 120);
    EXPECT_GT(ch.stats().rowHits, 40u);
}

TEST(Dram, RandomRowsMuchSlowerThanSequential)
{
    DramParams p;
    DramChannel seq(p, 0), rnd(p, 0);
    Cycles now = 0;
    std::vector<DramReq> done;
    uint64_t tag = 0;
    // Sequential: row hits back to back.
    for (uint64_t i = 0; i < 32; ++i) {
        while (!seq.canSubmit())
            seq.step(now++, done);
        seq.submit({i * kBurstBytes * p.channels, false, tag++}, now);
    }
    while (done.size() < 32 && now < 1'000'000)
        seq.step(now++, done);
    Cycles t_seq = now;
    // Random: same bank, different rows every time (worst case).
    std::vector<DramReq> done2;
    now = 0;
    for (uint64_t i = 0; i < 32; ++i) {
        while (!rnd.canSubmit())
            rnd.step(now++, done2);
        Addr a = i * p.rowBytes * p.banksPerChannel * p.channels;
        rnd.submit({a, false, tag++}, now);
    }
    while (done2.size() < 32 && now < 1'000'000)
        rnd.step(now++, done2);
    Cycles t_rnd = now;
    EXPECT_GT(t_rnd, t_seq * 2)
        << "row conflicts should cost far more than streaming";
    EXPECT_GT(rnd.stats().rowConflicts + rnd.stats().rowMisses, 20u);
}

TEST(Dram, ChannelInterleavesAtBurstGranularity)
{
    DramParams p;
    DramModel m(p);
    std::set<uint32_t> seen;
    for (Addr line = 0; line < 8; ++line)
        seen.insert(m.channelOf(line * kBurstBytes));
    EXPECT_EQ(seen.size(), p.channels);
    EXPECT_EQ(m.channelOf(0), m.channelOf(kBurstBytes * p.channels));
}

TEST(Dram, QueueBoundRespected)
{
    DramParams p;
    DramChannel ch(p, 0);
    Cycles now = 0;
    uint32_t accepted = 0;
    for (uint32_t i = 0; i < p.queueDepth + 10; ++i) {
        if (ch.canSubmit()) {
            ch.submit({i * 64, false, i}, now);
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, p.queueDepth);
}

TEST(Dram, ImageReadWrite)
{
    DramModel m(DramParams{});
    m.reserve(1024);
    m.writeWord(0, 0xdeadbeef);
    m.writeWord(1020, 77);
    EXPECT_EQ(m.readWord(0), 0xdeadbeefu);
    EXPECT_EQ(m.readWord(1020), 77u);
    EXPECT_GE(m.sizeBytes(), 1024u);
}

TEST(DramDeath, ImageOutOfRange)
{
    EXPECT_DEATH(
        {
            DramModel m(DramParams{});
            m.reserve(64);
            m.readWord(128);
        },
        "beyond image");
}

TEST(Dram, ResponsesCarryTags)
{
    DramParams p;
    DramChannel ch(p, 0);
    Cycles now = 0;
    std::vector<DramReq> done;
    ch.submit({0, false, 42}, now);
    ch.submit({64 * 4, true, 43}, now);
    while (done.size() < 2 && now < 10000)
        ch.step(now++, done);
    ASSERT_EQ(done.size(), 2u);
    std::set<uint64_t> tags{done[0].tag, done[1].tag};
    EXPECT_TRUE(tags.count(42));
    EXPECT_TRUE(tags.count(43));
}

/** Property: more channels never reduce streaming throughput. */
class ChannelSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ChannelSweep, ThroughputScalesWithChannels)
{
    DramParams p;
    p.channels = GetParam();
    DramModel m(p);
    std::vector<DramReq> done;
    Cycles now = 0;
    uint64_t tag = 0;
    Addr addr = 0;
    const size_t total = 128;
    while (done.size() < total && now < 1'000'000) {
        // Issue one line per channel per cycle where possible.
        for (uint32_t c = 0; c < p.channels; ++c) {
            DramChannel &ch = m.channel(m.channelOf(addr));
            if (ch.canSubmit()) {
                ch.submit({addr, false, tag++}, now);
                addr += kBurstBytes;
            }
        }
        m.step(now++, done);
    }
    ASSERT_EQ(done.size(), total);
    // Perfect streaming would take total/channels * tBurst cycles.
    double ideal = static_cast<double>(total) / p.channels * p.tBurst;
    EXPECT_LT(static_cast<double>(now), ideal * 2.5 + 100);
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

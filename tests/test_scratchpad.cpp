/** @file Scratchpad banking modes, conflicts, N-buffering, FIFO mode. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "base/rng.hpp"
#include "sim/scratchpad.hpp"

using namespace plast;

namespace
{

Scratchpad
make(BankingMode mode, uint32_t sizeWords, uint8_t nbuf = 1)
{
    Scratchpad sp;
    ScratchCfg cfg;
    cfg.mode = mode;
    cfg.sizeWords = sizeWords;
    cfg.numBufs = nbuf;
    sp.configure(cfg, 16, 65536);
    return sp;
}

} // namespace

TEST(Scratchpad, ReadBackWhatWasWritten)
{
    Scratchpad sp = make(BankingMode::kStrided, 1024);
    for (uint32_t a = 0; a < 1024; ++a)
        sp.write(0, a, a * 3);
    for (uint32_t a = 0; a < 1024; ++a)
        EXPECT_EQ(sp.read(0, a), a * 3);
}

/** Bound to a fabric's address-fault latch, an out-of-range access is
 *  recorded and dropped instead of panicking; the first one is kept. */
TEST(Scratchpad, OutOfRangeAccessLatchesWhenBound)
{
    Scratchpad sp = make(BankingMode::kStrided, 16);
    std::string fault;
    sp.bindAddressFault(&fault);
    sp.write(0, 3, 77);
    sp.write(0, 19, 5);
    EXPECT_EQ(fault, "scratchpad write buf 0 addr 19 out of range (1 x 16 "
                     "words)");
    EXPECT_EQ(sp.read(0, 16), 0u);
    EXPECT_EQ(fault, "scratchpad write buf 0 addr 19 out of range (1 x 16 "
                     "words)");
    EXPECT_EQ(sp.read(0, 3), 77u);
    for (uint32_t a = 0; a < 16; ++a)
        EXPECT_EQ(sp.read(0, a), a == 3 ? 77u : 0u);
}

TEST(Scratchpad, BuffersAreDisjoint)
{
    Scratchpad sp = make(BankingMode::kStrided, 256, 4);
    for (uint32_t b = 0; b < 4; ++b)
        sp.write(b, 10, 100 + b);
    for (uint32_t b = 0; b < 4; ++b)
        EXPECT_EQ(sp.read(b, 10), 100 + b);
}

TEST(Scratchpad, StridedConflictFreeForConsecutive)
{
    Scratchpad sp = make(BankingMode::kStrided, 1024);
    std::vector<uint32_t> addrs;
    for (uint32_t l = 0; l < 16; ++l)
        addrs.push_back(100 + l);
    EXPECT_EQ(sp.conflictCycles(addrs), 1u);
}

TEST(Scratchpad, StridedConflictWhenSameBank)
{
    Scratchpad sp = make(BankingMode::kStrided, 1024);
    // Stride 16 => every lane maps to the same bank.
    std::vector<uint32_t> addrs;
    for (uint32_t l = 0; l < 16; ++l)
        addrs.push_back(l * 16);
    EXPECT_EQ(sp.conflictCycles(addrs), 16u);
    // Stride 8 with 16 banks: lanes alternate between banks 0 and 8,
    // eight lanes each.
    addrs.clear();
    for (uint32_t l = 0; l < 16; ++l)
        addrs.push_back(l * 8);
    EXPECT_EQ(sp.conflictCycles(addrs), 8u);
    // Odd strides cycle through every bank: conflict free.
    addrs.clear();
    for (uint32_t l = 0; l < 16; ++l)
        addrs.push_back(l * 3);
    EXPECT_EQ(sp.conflictCycles(addrs), 1u);
}

TEST(Scratchpad, DuplicationModeIsConflictFree)
{
    Scratchpad sp = make(BankingMode::kDup, 1024);
    std::vector<uint32_t> addrs(16, 5); // worst case: all same word
    EXPECT_EQ(sp.conflictCycles(addrs), 1u);
}

TEST(Scratchpad, DuplicationModeShrinksCapacity)
{
    Scratchpad sp;
    ScratchCfg cfg;
    cfg.mode = BankingMode::kDup;
    cfg.sizeWords = 4096; // exactly totalWords / banks
    cfg.numBufs = 1;
    sp.configure(cfg, 16, 65536);
    SUCCEED();
}

TEST(Scratchpad, LineBufferWraps)
{
    Scratchpad sp = make(BankingMode::kLineBuffer, 64);
    sp.write(0, 3, 77);
    EXPECT_EQ(sp.read(0, 3 + 64), 77u);  // wrapped read
    sp.write(0, 64 + 5, 88);             // wrapped write
    EXPECT_EQ(sp.read(0, 5), 88u);
}

TEST(Scratchpad, FifoOrder)
{
    Scratchpad sp = make(BankingMode::kFifo, 256);
    for (int i = 0; i < 5; ++i)
        sp.fifoPush(Vec::broadcast(static_cast<Word>(i), 16));
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(sp.fifoCanPop());
        EXPECT_EQ(sp.fifoPop().lane[0], static_cast<Word>(i));
    }
    EXPECT_FALSE(sp.fifoCanPop());
}

TEST(ScratchpadDeath, CapacityOverflowIsFatal)
{
    EXPECT_EXIT(
        {
            Scratchpad sp;
            ScratchCfg cfg;
            cfg.sizeWords = 70000; // exceeds 64 K words
            cfg.numBufs = 1;
            sp.configure(cfg, 16, 65536);
        },
        ::testing::ExitedWithCode(1), "exceeds PMU capacity");
}

TEST(ScratchpadDeath, OutOfRangeReadPanics)
{
    EXPECT_DEATH(
        {
            Scratchpad sp = make(BankingMode::kStrided, 16);
            sp.read(0, 16);
        },
        "out of range");
}

// ---- randomized differential tests against a flat-array oracle ------
// The scratchpad may lay words out across banks however it likes; the
// observable contract is flat per-buffer word storage (modulo
// line-buffer wrap) plus the banking-dependent conflict cost.

TEST(Scratchpad, RandomizedReadWriteMatchesFlatOracle)
{
    for (BankingMode mode : {BankingMode::kStrided,
                             BankingMode::kLineBuffer,
                             BankingMode::kDup}) {
        const uint32_t size = 256, nbuf = 2;
        Scratchpad sp = make(mode, size, nbuf);
        std::vector<Word> oracle(size * nbuf, 0);
        const bool wraps = mode == BankingMode::kLineBuffer;
        Rng rng(0xabc0 + static_cast<uint64_t>(mode));
        for (int op = 0; op < 4000; ++op) {
            uint32_t buf = static_cast<uint32_t>(rng.nextBounded(nbuf));
            // Line buffers accept (and wrap) out-of-range addresses.
            uint32_t span = wraps ? 3 * size : size;
            uint32_t addr = static_cast<uint32_t>(rng.nextBounded(span));
            uint32_t flat = buf * size + addr % size;
            if (rng.nextBounded(2) == 0) {
                Word w = static_cast<Word>(rng.next());
                sp.write(buf, addr, w);
                oracle[flat] = w;
            } else {
                ASSERT_EQ(sp.read(buf, addr), oracle[flat])
                    << "mode " << static_cast<int>(mode) << " buf "
                    << buf << " addr " << addr;
            }
        }
    }
}

TEST(Scratchpad, RandomizedStridedConflictsMatchHistogramOracle)
{
    // Strided banking interleaves word addresses across the 16 banks,
    // so the cost of a vector access is the tallest bucket of the
    // addr % banks histogram.
    Scratchpad sp = make(BankingMode::kStrided, 1024);
    Rng rng(0xbadbeef);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<uint32_t> addrs;
        uint32_t hist[16] = {};
        for (uint32_t l = 0; l < 16; ++l) {
            uint32_t a = static_cast<uint32_t>(rng.nextBounded(1024));
            addrs.push_back(a);
            ++hist[a % 16];
        }
        uint32_t want = 0;
        for (uint32_t h : hist)
            want = std::max(want, h);
        ASSERT_EQ(sp.conflictCycles(addrs), want);
    }
}

TEST(Scratchpad, RandomizedDupIsAlwaysConflictFree)
{
    Scratchpad sp = make(BankingMode::kDup, 1024);
    Rng rng(0xd00d);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<uint32_t> addrs;
        for (uint32_t l = 0; l < 16; ++l)
            addrs.push_back(
                static_cast<uint32_t>(rng.nextBounded(1024)));
        ASSERT_EQ(sp.conflictCycles(addrs), 1u);
    }
}

TEST(Scratchpad, RandomizedFifoMatchesDequeOracle)
{
    Scratchpad sp = make(BankingMode::kFifo, 256);
    std::deque<Vec> oracle;
    Rng rng(0xf1f0);
    for (int op = 0; op < 2000; ++op) {
        if (oracle.empty() || rng.nextBounded(2) == 0) {
            Vec v = Vec::broadcast(0, 16);
            for (uint32_t l = 0; l < 16; ++l)
                v.lane[l] = static_cast<Word>(rng.next());
            if (rng.nextBounded(4) == 0)
                v.clearValid(static_cast<uint32_t>(rng.nextBounded(16)));
            sp.fifoPush(v);
            oracle.push_back(v);
        } else {
            ASSERT_TRUE(sp.fifoCanPop());
            Vec got = sp.fifoPop();
            Vec want = oracle.front();
            oracle.pop_front();
            ASSERT_EQ(got.mask, want.mask);
            for (uint32_t l = 0; l < 16; ++l)
                ASSERT_EQ(got.lane[l], want.lane[l]);
        }
        ASSERT_EQ(sp.fifoSize(), oracle.size());
    }
}

/** @file Unit tests for base utilities: formatting, stats, RNG, types. */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "base/logging.hpp"
#include "base/rng.hpp"
#include "base/stats.hpp"
#include "base/types.hpp"

using namespace plast;

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d", 42), "x=42");
    EXPECT_EQ(strfmt("%s-%03u", "pcu", 7u), "pcu-007");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(Strfmt, LongStringsDoNotTruncate)
{
    std::string big(5000, 'a');
    EXPECT_EQ(strfmt("%s", big.c_str()).size(), 5000u);
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    EXPECT_EQ(s.get("missing"), 0u);
    s.add("a.x");
    s.add("a.x", 4);
    EXPECT_EQ(s.get("a.x"), 5u);
    s.set("a.x", 2);
    EXPECT_EQ(s.get("a.x"), 2u);
    EXPECT_TRUE(s.has("a.x"));
    EXPECT_FALSE(s.has("a.y"));
}

TEST(StatSet, DumpContainsEveryCounter)
{
    StatSet s;
    s.set("alpha", 1);
    s.set("beta", 2);
    std::ostringstream os;
    s.writeJson(os);
    EXPECT_NE(os.str().find("\"alpha\": 1"), std::string::npos);
    EXPECT_NE(os.str().find("\"beta\": 2"), std::string::npos);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.nextBounded(13);
        EXPECT_LT(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 13u); // all residues hit
}

TEST(Rng, GoldenFirstSixteenValues)
{
    // The canonical splitmix64 sequence for seed 1. Pins the
    // generator bit-for-bit across platforms: every fuzz seed file and
    // synthesized workload depends on these exact draws.
    static const uint64_t kGolden[16] = {
        0x910a2dec89025cc1ull, 0xbeeb8da1658eec67ull,
        0xf893a2eefb32555eull, 0x71c18690ee42c90bull,
        0x71bb54d8d101b5b9ull, 0xc34d0bff90150280ull,
        0xe099ec6cd7363ca5ull, 0x85e7bb0f12278575ull,
        0x491718de357e3da8ull, 0xcb435c8e74616796ull,
        0x6775dc7701564f61ull, 0x9afcd44d14cf8bfeull,
        0x7476cf8a4baa5dc0ull, 0x87b341d690d7a28aull,
        0x6f9b6dae6f4c57a8ull, 0x2ac2ce17a5794a3bull,
    };
    Rng r(1);
    for (uint64_t want : kGolden)
        EXPECT_EQ(r.next(), want);
}

TEST(Rng, BoundedZeroReturnsZeroButAdvancesState)
{
    // nextBounded(0) must be safe (no % 0) yet still consume one draw
    // so call sequences stay aligned regardless of bound values.
    Rng a(5), b(5);
    EXPECT_EQ(a.nextBounded(0), 0u);
    b.next(); // consume the same draw
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedOneIsAlwaysZero)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.nextBounded(1), 0u);
}

TEST(Rng, BoundedMatchesPlainModulo)
{
    // Documented contract: plain modulo of next(), no rejection loop
    // (the bias of at most bound/2^64 is accepted for determinism).
    Rng a(21), b(21);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.nextBounded(97), b.next() % 97);
}

TEST(Rng, FloatRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        float f = r.nextFloat(-2.0f, 3.0f);
        EXPECT_GE(f, -2.0f);
        EXPECT_LT(f, 3.0f);
    }
}

TEST(Types, FloatWordRoundTrip)
{
    for (float f : {0.0f, 1.0f, -1.5f, 3.14159f, 1e30f, -1e-30f})
        EXPECT_EQ(wordToFloat(floatToWord(f)), f);
}

TEST(Types, IntWordRoundTrip)
{
    for (int32_t v : {0, 1, -1, 42, -123456, INT32_MAX, INT32_MIN})
        EXPECT_EQ(wordToInt(intToWord(v)), v);
}

TEST(Types, VecBroadcastSetsMask)
{
    Vec v = Vec::broadcast(7, 16);
    EXPECT_EQ(v.mask, 0xffffu);
    EXPECT_EQ(v.popcount(), 16u);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(v.lane[l], 7u);
    v.clearValid(3);
    EXPECT_FALSE(v.valid(3));
    EXPECT_EQ(v.popcount(), 15u);
    v.setValid(3);
    EXPECT_TRUE(v.valid(3));
}

TEST(Types, VecBroadcast32Lanes)
{
    Vec v = Vec::broadcast(1, 32);
    EXPECT_EQ(v.mask, 0xffffffffu);
}

/** @file Chip geometry: checkerboard layout, index/site inverses, AG
 *  edge attachment and channel binding. */

#include <gtest/gtest.h>

#include "arch/geometry.hpp"

using namespace plast;

TEST(Geometry, CheckerboardBalances)
{
    ArchParams p;
    Geometry g(p);
    uint32_t pcus = 0, pmus = 0;
    for (uint32_t r = 0; r < p.gridRows; ++r) {
        for (uint32_t c = 0; c < p.gridCols; ++c)
            (g.siteIsPcu(c, r) ? pcus : pmus)++;
    }
    EXPECT_EQ(pcus, p.numPcus());
    EXPECT_EQ(pmus, p.numPmus());
    EXPECT_EQ(pcus, 64u);
    EXPECT_EQ(pmus, 64u);
}

TEST(Geometry, NeighborsAlternate)
{
    ArchParams p;
    Geometry g(p);
    for (uint32_t r = 0; r + 1 < p.gridRows; ++r) {
        for (uint32_t c = 0; c + 1 < p.gridCols; ++c) {
            EXPECT_NE(g.siteIsPcu(c, r), g.siteIsPcu(c + 1, r));
            EXPECT_NE(g.siteIsPcu(c, r), g.siteIsPcu(c, r + 1));
        }
    }
}

TEST(Geometry, SiteOfIsInverseOfUnitIndexAt)
{
    // siteOf is closed-form; the row-major scan in unitIndexAt is the
    // oracle. Every shape up to 10 x 10 covers both column parities and
    // single-row / single-column grids.
    for (uint32_t cols = 1; cols <= 10; ++cols) {
        for (uint32_t rows = 1; rows <= 10; ++rows) {
            ArchParams p;
            p.gridCols = cols;
            p.gridRows = rows;
            Geometry g(p);
            uint32_t seen[2] = {0, 0};
            for (uint32_t r = 0; r < rows; ++r) {
                for (uint32_t c = 0; c < cols; ++c) {
                    bool pcu = g.siteIsPcu(c, r);
                    UnitClass cls =
                        pcu ? UnitClass::kPcu : UnitClass::kPmu;
                    uint32_t idx = g.unitIndexAt(c, r);
                    EXPECT_EQ(idx, seen[pcu ? 0 : 1]++);
                    uint32_t cc = 0, rr = 0;
                    g.siteOf(cls, idx, cc, rr);
                    EXPECT_EQ(cc, c) << cols << "x" << rows << " "
                                     << unitClassName(cls) << " " << idx;
                    EXPECT_EQ(rr, r) << cols << "x" << rows << " "
                                     << unitClassName(cls) << " " << idx;
                }
            }
            EXPECT_EQ(seen[0], p.numPcus()) << cols << "x" << rows;
            EXPECT_EQ(seen[1], p.numPmus()) << cols << "x" << rows;
        }
    }
}

TEST(Geometry, AgsLiveOnChipEdges)
{
    ArchParams p;
    Geometry g(p);
    for (uint32_t a = 0; a < p.numAgs; ++a) {
        SwitchCoord sc = g.agSwitch(a);
        bool left = sc.col == 0;
        bool right = sc.col == static_cast<int>(p.gridCols);
        EXPECT_TRUE(left || right) << "AG " << a << " not on an edge";
        EXPECT_GE(sc.row, 0);
        EXPECT_LE(sc.row, static_cast<int>(p.gridRows));
    }
}

TEST(Geometry, AgChannelsCoverAllChannels)
{
    ArchParams p;
    Geometry g(p);
    std::set<uint32_t> channels;
    for (uint32_t a = 0; a < p.numAgs; ++a) {
        uint32_t ch = g.agChannel(a);
        EXPECT_LT(ch, p.dram.channels);
        channels.insert(ch);
    }
    EXPECT_EQ(channels.size(), p.dram.channels);
}

TEST(Geometry, BoxIndexEncodesSwitchSite)
{
    ArchParams p;
    Geometry g(p);
    uint32_t idx = 3 * p.switchCols() + 7;
    SwitchCoord sc = g.switchOf(UnitClass::kBox, idx);
    EXPECT_EQ(sc.col, 7);
    EXPECT_EQ(sc.row, 3);
}

TEST(Geometry, ManhattanDistance)
{
    EXPECT_EQ(Geometry::manhattan({0, 0}, {3, 4}), 7u);
    EXPECT_EQ(Geometry::manhattan({5, 2}, {5, 2}), 0u);
    EXPECT_EQ(Geometry::manhattan({2, 5}, {5, 2}), 6u);
}

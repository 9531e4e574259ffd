#include "arch/geometry.hpp"

#include "base/logging.hpp"

namespace plast
{

uint32_t
Geometry::unitIndexAt(uint32_t c, uint32_t r) const
{
    panic_if(c >= cols() || r >= rows(), "site (%u,%u) out of grid", c, r);
    // Count same-class sites scanning row-major up to (c, r).
    uint32_t idx = 0;
    bool want_pcu = siteIsPcu(c, r);
    for (uint32_t rr = 0; rr <= r; ++rr) {
        uint32_t cmax = (rr == r) ? c : cols();
        for (uint32_t cc = 0; cc < cmax; ++cc) {
            if (siteIsPcu(cc, rr) == want_pcu)
                ++idx;
        }
    }
    return idx;
}

void
Geometry::siteOf(UnitClass cls, uint32_t idx, uint32_t &c, uint32_t &r) const
{
    // Each pair of rows holds `cols` units of either class: an even row
    // has ceil(cols/2) PCUs and floor(cols/2) PMUs, an odd row the
    // reverse. Within a row the class alternates, starting at column
    // (r & 1) for PCUs and (~r & 1) for PMUs.
    const bool pcu = cls == UnitClass::kPcu;
    const uint32_t evenRowCount = pcu ? (cols() + 1) / 2 : cols() / 2;
    const uint32_t pair = idx / cols();
    uint32_t k = idx % cols();
    uint32_t rr = 2 * pair;
    if (k >= evenRowCount) {
        k -= evenRowCount;
        ++rr;
    }
    panic_if(rr >= rows(), "siteOf: %s index %u out of range",
             unitClassName(cls).c_str(), idx);
    r = rr;
    c = 2 * k + ((rr + (pcu ? 0u : 1u)) & 1u);
}

SwitchCoord
Geometry::switchOf(UnitClass cls, uint32_t idx) const
{
    switch (cls) {
      case UnitClass::kPcu:
      case UnitClass::kPmu: {
        uint32_t c = 0, r = 0;
        siteOf(cls, idx, c, r);
        return {static_cast<int>(c), static_cast<int>(r)};
      }
      case UnitClass::kAg:
        return agSwitch(idx);
      case UnitClass::kBox:
        // Boxes are placed by the compiler; their index encodes the
        // switch site directly: idx = row * switchCols + col.
        return {static_cast<int>(idx % (cols() + 1)),
                static_cast<int>(idx / (cols() + 1))};
      case UnitClass::kHost:
        return {0, 0};
    }
    return {0, 0};
}

SwitchCoord
Geometry::agSwitch(uint32_t agIdx) const
{
    // AGs alternate left/right edges, walking down the switch rows.
    uint32_t side = agIdx & 1u;
    uint32_t slot = agIdx / 2;
    uint32_t row = slot % (rows() + 1);
    int col = side == 0 ? 0 : static_cast<int>(cols());
    return {col, static_cast<int>(row)};
}

uint32_t
Geometry::agChannel(uint32_t agIdx) const
{
    return agIdx % p_.dram.channels;
}

} // namespace plast

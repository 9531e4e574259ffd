#include "resilience/fault.hpp"

#include <algorithm>

#include "base/logging.hpp"
#include "base/rng.hpp"

namespace plast::resilience
{

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::kPcuRegFlip:
        return "pcu_reg_flip";
      case FaultKind::kPmuScratchFlip:
        return "pmu_scratch_flip";
      case FaultKind::kCtrlTokenDrop:
        return "ctrl_token_drop";
      case FaultKind::kCtrlTokenDup:
        return "ctrl_token_dup";
      case FaultKind::kDramResponse:
        return "dram_response";
      case FaultKind::kPcuStuck:
        return "pcu_stuck";
      case FaultKind::kPmuStuck:
        return "pmu_stuck";
      default:
        return "?";
    }
}

std::string
FaultEvent::describe() const
{
    switch (kind) {
      case FaultKind::kPcuRegFlip:
        return strfmt("%s@%llu pcu%u reg%u lane%u bit%u", faultKindName(kind),
                      static_cast<unsigned long long>(cycle), unit, reg, lane,
                      bit);
      case FaultKind::kPmuScratchFlip:
        return strfmt("%s@%llu pmu%u buf%u addr%u bits%u", faultKindName(kind),
                      static_cast<unsigned long long>(cycle), unit, buf, addr,
                      bits);
      case FaultKind::kCtrlTokenDrop:
      case FaultKind::kCtrlTokenDup:
        return strfmt("%s@%llu chan%u", faultKindName(kind),
                      static_cast<unsigned long long>(cycle), unit);
      case FaultKind::kDramResponse:
        return strfmt("%s@%llu bits%u bit%u", faultKindName(kind),
                      static_cast<unsigned long long>(cycle), bits, bit);
      case FaultKind::kPcuStuck:
      case FaultKind::kPmuStuck:
        return strfmt("%s@%llu unit%u", faultKindName(kind),
                      static_cast<unsigned long long>(cycle), unit);
      default:
        return "?";
    }
}

namespace
{

std::vector<FaultKind>
kindsFor(FaultMix mix, bool includeHard)
{
    std::vector<FaultKind> kinds;
    switch (mix) {
      case FaultMix::kAll:
        kinds = {FaultKind::kPcuRegFlip, FaultKind::kPmuScratchFlip,
                 FaultKind::kCtrlTokenDrop, FaultKind::kCtrlTokenDup,
                 FaultKind::kDramResponse};
        break;
      case FaultMix::kProtected:
        kinds = {FaultKind::kPmuScratchFlip, FaultKind::kDramResponse};
        break;
      case FaultMix::kDatapath:
        kinds = {FaultKind::kPcuRegFlip, FaultKind::kPmuScratchFlip};
        break;
    }
    if (includeHard) {
        kinds.push_back(FaultKind::kPcuStuck);
        kinds.push_back(FaultKind::kPmuStuck);
    }
    return kinds;
}

} // namespace

FaultPlan
FaultPlan::random(uint64_t seed, double eventsPerMillionCycles, Cycles horizon,
                  const FabricConfig &cfg, FaultMix mix, bool includeHard)
{
    panic_if(!(eventsPerMillionCycles <= kMaxEventsPerMillionCycles),
             "fault rate %g exceeds one event per cycle",
             eventsPerMillionCycles);
    FaultPlan plan;
    if (horizon == 0 || eventsPerMillionCycles <= 0.0)
        return plan;

    // Target lists: only used units can be struck (an upset in an
    // unconfigured unit is architecturally masked by definition, so
    // modeling it would only dilute the campaign).
    std::vector<uint32_t> pcus, pmus;
    for (uint32_t i = 0; i < cfg.pcus.size(); ++i)
        if (cfg.pcus[i].used)
            pcus.push_back(i);
    for (uint32_t i = 0; i < cfg.pmus.size(); ++i)
        if (cfg.pmus[i].used &&
            cfg.pmus[i].scratch.mode != BankingMode::kFifo &&
            cfg.pmus[i].scratch.sizeWords > 0)
            pmus.push_back(i);
    uint32_t ctrlChans = 0;
    for (const ChannelCfg &ch : cfg.channels)
        if (ch.kind == NetKind::kControl)
            ++ctrlChans;

    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    double expected =
        eventsPerMillionCycles * static_cast<double>(horizon) / 1e6;
    uint32_t count = static_cast<uint32_t>(expected);
    if (rng.nextFloat() < expected - static_cast<double>(count))
        ++count;

    std::vector<FaultKind> kinds = kindsFor(mix, includeHard);
    bool hardPlaced = false;
    for (uint32_t n = 0; n < count; ++n) {
        FaultEvent e;
        e.kind = kinds[rng.nextBounded(kinds.size())];
        // At most one hard fault per plan: recovery re-maps around the
        // full fired-stuck set, but a plan that freezes half the fabric
        // tells us nothing a single freeze does not.
        if (isHardFault(e.kind) && hardPlaced)
            e.kind = FaultKind::kPcuRegFlip;
        e.cycle = 1 + rng.nextBounded(horizon);
        switch (e.kind) {
          case FaultKind::kPcuRegFlip:
          case FaultKind::kPcuStuck:
            if (pcus.empty())
                continue;
            e.unit = pcus[rng.nextBounded(pcus.size())];
            e.reg = static_cast<uint32_t>(rng.nextBounded(256));
            e.lane = static_cast<uint32_t>(rng.nextBounded(256));
            e.bit = static_cast<uint32_t>(rng.nextBounded(32));
            break;
          case FaultKind::kPmuScratchFlip:
          case FaultKind::kPmuStuck:
            if (pmus.empty())
                continue;
            e.unit = pmus[rng.nextBounded(pmus.size())];
            {
                const ScratchCfg &sc = cfg.pmus[e.unit].scratch;
                e.buf = static_cast<uint32_t>(rng.nextBounded(sc.numBufs));
                e.addr = static_cast<uint32_t>(rng.nextBounded(sc.sizeWords));
            }
            e.bits = rng.nextFloat() < 0.85 ? 1 : 2;
            e.bit = static_cast<uint32_t>(rng.nextBounded(32));
            break;
          case FaultKind::kCtrlTokenDrop:
          case FaultKind::kCtrlTokenDup:
            if (ctrlChans == 0)
                continue;
            e.unit = static_cast<uint32_t>(rng.nextBounded(ctrlChans));
            break;
          case FaultKind::kDramResponse:
            e.bits = rng.nextFloat() < 0.85 ? 1 : 2;
            e.bit = static_cast<uint32_t>(
                rng.nextBounded(8 * kBurstBytes));
            break;
          default:
            continue;
        }
        if (isHardFault(e.kind))
            hardPlaced = true;
        plan.events.push_back(e);
    }

    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.cycle < b.cycle;
                     });
    return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, bool dramEcc)
    : events_(std::move(plan.events)), dramEcc_(dramEcc)
{
}

Cycles
FaultInjector::nextDue(Cycles now) const
{
    Cycles best = kNeverCycle;
    for (const FaultEvent &e : events_) {
        if (e.fired || e.kind == FaultKind::kDramResponse)
            continue;
        if (e.cycle > now && e.cycle < best)
            best = e.cycle;
    }
    return best;
}

std::vector<FaultEvent>
FaultInjector::collectDue(Cycles now)
{
    std::vector<FaultEvent> due;
    for (FaultEvent &e : events_) {
        if (e.fired || e.kind == FaultKind::kDramResponse)
            continue;
        if (e.cycle <= now) {
            e.fired = true;
            due.push_back(e);
        }
    }
    return due;
}

MemFaultHook::BurstFault
FaultInjector::onBurstResponse(Addr lineAddr, Cycles now)
{
    (void)lineAddr;
    for (FaultEvent &e : events_) {
        if (e.fired || e.kind != FaultKind::kDramResponse || e.cycle > now)
            continue;
        e.fired = true;
        BurstFault f;
        f.bit = e.bit;
        if (!dramEcc_)
            f.action = BurstAction::kCorrupt;
        else if (e.bits <= 1)
            f.action = BurstAction::kCorrected;
        else
            f.action = BurstAction::kRetry;
        return f;
    }
    return {};
}

uint32_t
FaultInjector::firedCount() const
{
    uint32_t n = 0;
    for (const FaultEvent &e : events_)
        n += e.fired ? 1 : 0;
    return n;
}

uint32_t
FaultInjector::firedCount(FaultKind k) const
{
    uint32_t n = 0;
    for (const FaultEvent &e : events_)
        n += (e.fired && e.kind == k) ? 1 : 0;
    return n;
}

uint32_t
FaultInjector::firedUnprotected() const
{
    uint32_t n = 0;
    for (const FaultEvent &e : events_)
        n += (e.fired && !isEccProtected(e.kind) && !isHardFault(e.kind))
                 ? 1
                 : 0;
    return n;
}

std::vector<FaultEvent>
FaultInjector::firedStuck() const
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &e : events_)
        if (e.fired && isHardFault(e.kind))
            out.push_back(e);
    return out;
}

Cycles
FaultInjector::earliestFiredCycle() const
{
    Cycles best = kNeverCycle;
    for (const FaultEvent &e : events_)
        if (e.fired && e.cycle < best)
            best = e.cycle;
    return best;
}

} // namespace plast::resilience

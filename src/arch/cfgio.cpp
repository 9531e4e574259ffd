#include "arch/cfgio.hpp"

#include <algorithm>
#include <sstream>

#include "base/textio.hpp"

namespace plast
{

// --------------------------------------------------------------------
// The .pcfg field walks (base/textio.hpp). Format properties: "-"
// stands for an empty unit name, every number is decimal, and a unit
// array lists only its used units, each behind its index.
// --------------------------------------------------------------------

namespace
{

/** UnitRef::index is 16 bits; no unit array is longer. */
constexpr uint64_t kMaxUnits = uint64_t{1} << 16;

template <class S>
Name<S>
name(S &s)
{
    return {s, "-"};
}

} // namespace

template <class Ar, Is<Operand> O>
void
fields(Ar &ar, O &o)
{
    ar(o.kind, o.index, o.imm);
}

template <class Ar, Is<StageCfg> S>
void
fields(Ar &ar, S &s)
{
    ar.line("    stage", s.kind, s.op, s.a, s.b, s.c, s.dstReg, s.setsMask,
            s.reduceDist, s.accLevel, s.shiftAmt);
}

template <class Ar, Is<CounterCfg> K>
void
fields(Ar &ar, K &k)
{
    ar.line("    ctr", k.min, k.step, k.max, k.vectorized, k.maxFromScalarIn,
            k.boundScale);
}

template <class Ar, Is<ChainCfg> C>
void
fields(Ar &ar, C &c)
{
    ar.list("   chain", c.ctrs);
}

template <class Ar, Is<ControlCfg> C>
void
fields(Ar &ar, C &c)
{
    ar.line("   ctrl", c.tokenIns, c.doneOuts);
}

template <class Ar, Is<EmitCond> E>
void
fields(Ar &ar, E &c)
{
    ar(c.always, c.level);
}

template <class Ar, Is<VecOutCfg> V>
void
fields(Ar &ar, V &v)
{
    ar.line("    vecout", v.enabled, v.srcReg, v.cond, v.coalesce);
}

template <class Ar, Is<ScalOutCfg> V>
void
fields(Ar &ar, V &v)
{
    ar.line("    scalout", v.enabled, v.srcReg, v.cond, v.countOfVecOut);
}

template <class Ar, Is<PcuCfg> U>
void
fields(Ar &ar, U &u)
{
    ar.line(name(u.name));
    fields(ar, u.chain);
    ar.list("   stages", u.stages);
    ar.list("   vecouts", u.vecOuts);
    ar.list("   scalouts", u.scalOuts);
    fields(ar, u.ctrl);
}

template <class Ar, Is<PmuPortCfg> P>
void
fields(Ar &ar, P &p)
{
    ar.line(p.enabled, p.addrReg, p.addrVecIn, p.dataVecIn, p.dataVecOut,
            p.accumulate, p.accumOp, p.swapEvery, p.vecLinear, p.clearEvery,
            p.broadcast, p.appendMode);
    fields(ar, p.chain);
    ar.list("   addrstages", p.addrStages);
    fields(ar, p.ctrl);
}

template <class Ar, Is<PmuCfg> U>
void
fields(Ar &ar, U &u)
{
    ar.line(name(u.name));
    ar.line("  scratch", u.scratch.mode, u.scratch.numBufs,
            u.scratch.sizeWords);
    ar("  write", u.write);
    ar("  write2", u.write2);
    ar("  read", u.read);
}

template <class Ar, Is<AgCfg> U>
void
fields(Ar &ar, U &u)
{
    ar.line(name(u.name), u.mode, u.addrReg, u.base, u.wordsPerCmd,
            u.addrVecIn, u.dataVecIn, u.dataVecOut, u.channel);
    fields(ar, u.chain);
    ar.list("   addrstages", u.addrStages);
    fields(ar, u.ctrl);
}

template <class Ar, Is<ControlBoxCfg::CtrExport> E>
void
fields(Ar &ar, E &e)
{
    ar.line("    export", e.ctrIdx, e.scalarOutPort);
}

template <class Ar, Is<ControlBoxCfg> U>
void
fields(Ar &ar, U &u)
{
    ar.line(name(u.name), u.scheme, u.depth);
    fields(ar, u.chain);
    fields(ar, u.ctrl);
    ar.line("   starts", u.childStartOuts);
    ar.line("   dones", u.childDoneIns);
    ar.list("   exports", u.exports);
}

template <class Ar, Is<Endpoint> E>
void
fields(Ar &ar, E &e)
{
    ar(e.unit.cls, e.unit.index, e.port);
}

template <class Ar, Is<ChannelCfg> C>
void
fields(Ar &ar, C &c)
{
    ar.line(" channel", c.kind, c.src, c.dst, c.latency, c.initialTokens,
            c.capacity, c.dstPopEvery);
}

template <class Ar, Is<ConstScalar> C>
void
fields(Ar &ar, C &c)
{
    ar.line(" constant", c.dst, c.value);
}

template <class Ar, Is<ArchParams> P>
void
fields(Ar &ar, P &p)
{
    ar.line("params", p.gridCols, p.gridRows, p.numAgs,
            p.coalescerCacheLines, p.coalescerMaxOutstanding,
            p.vectorTracks, p.scalarTracks, p.controlTracks);
    auto &c = p.pcu;
    ar.line("pcu_params", c.lanes, c.stages, c.regsPerStage, c.scalarIns,
            c.scalarOuts, c.vectorIns, c.vectorOuts, c.counters,
            c.fifoDepth);
    auto &m = p.pmu;
    ar.line("pmu_params", m.banks, m.bankKilobytes, m.stages,
            m.regsPerStage, m.scalarIns, m.scalarOuts, m.vectorIns,
            m.vectorOuts, m.ecc);
    auto &d = p.dram;
    ar.line("dram_params", d.channels, d.banksPerChannel, d.rowBytes,
            d.tRcd, d.tCas, d.tRp, d.tRas, d.tBurst, d.queueDepth, d.ecc);
}

/** `kw total used`, then `unitKw index` and the unit's fields for each
 *  used unit in index order (the reader takes any order). */
template <class Ar, class V>
void
units(Ar &ar, const char *kw, const char *unitKw, V &v)
{
    if constexpr (Ar::kSaving) {
        auto used = std::count_if(v.begin(), v.end(),
                                  [](const auto &u) { return u.used; });
        ar.line(kw, v.size(), used);
        for (size_t i = 0; i < v.size(); ++i) {
            if (v[i].used) {
                ar(unitKw, i);
                fields(ar, v[i]);
            }
        }
    } else {
        uint64_t total = 0, used = 0;
        ar.line(kw, total, used);
        if (total > kMaxUnits)
            ar.fail(strfmt("%llu units", static_cast<unsigned long long>(
                                             total)));
        v.assign(ar.ok() ? total : 0, {});
        for (uint64_t k = 0; k < used && ar.ok(); ++k) {
            uint64_t i = 0;
            ar(unitKw, i);
            if (ar.ok() && i >= total)
                ar.fail(strfmt("index %llu of %llu",
                               static_cast<unsigned long long>(i),
                               static_cast<unsigned long long>(total)));
            if (!ar.ok())
                break;
            v[i].used = true;
            fields(ar, v[i]);
        }
    }
}

template <class Ar, Is<FabricConfig> C>
void
fields(Ar &ar, C &cfg)
{
    ar.version("fabriccfg", 2);
    fields(ar, cfg.params);
    ar.line("rootbox", cfg.rootBox);
    ar.line("hostargouts", cfg.hostArgOuts);
    units(ar, "pcus", " pcu", cfg.pcus);
    units(ar, "pmus", " pmu", cfg.pmus);
    units(ar, "ags", " ag", cfg.ags);
    units(ar, "boxes", " box", cfg.boxes);
    ar.list("channels", cfg.channels);
    ar.list("constants", cfg.constants);
    ar.line("end");
}

void
configFields(TextWriter &ar, const FabricConfig &cfg)
{
    fields(ar, cfg);
}

void
configFields(TextReader &ar, FabricConfig &cfg)
{
    fields(ar, cfg);
}

void
paramsFields(TextWriter &ar, const ArchParams &params)
{
    fields(ar, params);
}

void
paramsFields(TextReader &ar, ArchParams &params)
{
    fields(ar, params);
}

void
writeConfig(std::ostream &os, const FabricConfig &cfg)
{
    TextWriter ar(os);
    fields(ar, cfg);
}

std::string
configToText(const FabricConfig &cfg)
{
    std::ostringstream os;
    writeConfig(os, cfg);
    return os.str();
}

std::string
archParamsText(const ArchParams &params)
{
    std::ostringstream os;
    TextWriter ar(os);
    fields(ar, params);
    return os.str();
}

bool
readConfig(std::istream &is, FabricConfig &out, std::string *err)
{
    TextReader ar(is);
    FabricConfig cfg;
    fields(ar, cfg);
    if (!ar.ok()) {
        if (err)
            *err = ar.error();
        return false;
    }
    out = std::move(cfg);
    return true;
}

} // namespace plast

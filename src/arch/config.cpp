#include "arch/config.hpp"

#include <algorithm>

#include "base/logging.hpp"

namespace plast
{

namespace
{

std::string
operandDesc(const Operand &op)
{
    switch (op.kind) {
      case OperandKind::kNone: return "-";
      case OperandKind::kReg: return strfmt("r%u", op.index);
      case OperandKind::kCounter: return strfmt("c%u", op.index);
      case OperandKind::kScalarIn: return strfmt("si%u", op.index);
      case OperandKind::kVectorIn: return strfmt("vi%u", op.index);
      case OperandKind::kImm: return strfmt("#%u", op.imm);
      case OperandKind::kLaneId: return "lane";
    }
    return "?";
}

} // namespace

std::string
StageCfg::describe() const
{
    switch (kind) {
      case StageKind::kMap:
        return strfmt("r%u = %s(%s, %s, %s)%s", dstReg,
                      fuOpName(op).c_str(), operandDesc(a).c_str(),
                      operandDesc(b).c_str(), operandDesc(c).c_str(),
                      setsMask ? " [mask]" : "");
      case StageKind::kReduceStep:
        return strfmt("r%u = reduce.%s dist=%u (%s)", dstReg,
                      fuOpName(op).c_str(), reduceDist,
                      operandDesc(a).c_str());
      case StageKind::kAccum:
        return strfmt("r%u = acc.%s lvl=%u (%s)", dstReg,
                      fuOpName(op).c_str(), accLevel,
                      operandDesc(a).c_str());
      case StageKind::kShift:
        return strfmt("r%u = shift %d (%s)", dstReg, shiftAmt,
                      operandDesc(a).c_str());
    }
    return "?";
}

std::string
bankingModeName(BankingMode mode)
{
    switch (mode) {
      case BankingMode::kStrided: return "strided";
      case BankingMode::kFifo: return "fifo";
      case BankingMode::kLineBuffer: return "linebuffer";
      case BankingMode::kDup: return "dup";
    }
    return "?";
}

std::string
agModeName(AgMode mode)
{
    switch (mode) {
      case AgMode::kDenseLoad: return "dense-load";
      case AgMode::kDenseStore: return "dense-store";
      case AgMode::kSparseLoad: return "sparse-load";
      case AgMode::kSparseStore: return "sparse-store";
    }
    return "?";
}

std::string
ctrlSchemeName(CtrlScheme scheme)
{
    switch (scheme) {
      case CtrlScheme::kSequential: return "sequential";
      case CtrlScheme::kMetapipe: return "metapipe";
      case CtrlScheme::kStream: return "stream";
    }
    return "?";
}

std::string
netKindName(NetKind kind)
{
    switch (kind) {
      case NetKind::kScalar: return "scalar";
      case NetKind::kVector: return "vector";
      case NetKind::kControl: return "control";
    }
    return "?";
}

std::string
unitClassName(UnitClass cls)
{
    switch (cls) {
      case UnitClass::kPcu: return "pcu";
      case UnitClass::kPmu: return "pmu";
      case UnitClass::kAg: return "ag";
      case UnitClass::kBox: return "box";
      case UnitClass::kHost: return "host";
    }
    return "?";
}

std::string
UnitRef::describe() const
{
    return strfmt("%s%u", unitClassName(cls).c_str(), index);
}

std::string
ChannelCfg::describe() const
{
    return strfmt("%s: %s.%u -> %s.%u lat=%u tok=%u",
                  netKindName(kind).c_str(), src.unit.describe().c_str(),
                  src.port, dst.unit.describe().c_str(), dst.port, latency,
                  initialTokens);
}

uint32_t
FabricConfig::usedPcus() const
{
    uint32_t n = 0;
    for (const auto &p : pcus)
        n += p.used ? 1 : 0;
    return n;
}

uint32_t
FabricConfig::usedPmus() const
{
    uint32_t n = 0;
    for (const auto &p : pmus)
        n += p.used ? 1 : 0;
    return n;
}

uint32_t
FabricConfig::usedAgs() const
{
    uint32_t n = 0;
    for (const auto &a : ags)
        n += a.used ? 1 : 0;
    return n;
}

std::string
FabricConfig::describe() const
{
    uint32_t used_boxes = 0;
    for (const auto &b : boxes)
        used_boxes += b.used ? 1 : 0;
    return strfmt("fabric: %u/%zu PCUs, %u/%zu PMUs, %u/%zu AGs, "
                  "%u boxes, %zu channels",
                  usedPcus(), pcus.size(), usedPmus(), pmus.size(),
                  usedAgs(), ags.size(), used_boxes, channels.size());
}

// --------------------------------------------------------------------
// Reachability / deadness analysis
// --------------------------------------------------------------------

namespace
{

void
noteOperand(const Operand &op, PcuLiveness &lv)
{
    if (op.kind == OperandKind::kReg)
        lv.readRegs |= 1u << op.index;
    if (op.kind == OperandKind::kVectorIn &&
        std::find(lv.vecInRefs.begin(), lv.vecInRefs.end(), op.index) ==
            lv.vecInRefs.end())
        lv.vecInRefs.push_back(op.index);
}

} // namespace

PcuLiveness
analyzePcu(const PcuCfg &cfg)
{
    PcuLiveness lv;
    for (const StageCfg &st : cfg.stages) {
        // Conservative: count every operand slot, not just the op's
        // arity — a dead slot left pointing at a register still makes
        // that register part of the reset set.
        noteOperand(st.a, lv);
        noteOperand(st.b, lv);
        noteOperand(st.c, lv);
        lv.writtenRegs |= 1u << st.dstReg;
        if (st.kind == StageKind::kMap && st.setsMask)
            lv.anySetsMask = true;
    }
    for (size_t p = 0; p < cfg.vecOuts.size(); ++p) {
        const VecOutCfg &vo = cfg.vecOuts[p];
        if (!vo.enabled)
            continue;
        lv.liveVecOuts.push_back(static_cast<uint8_t>(p));
        lv.readRegs |= 1u << vo.srcReg;
        lv.anyCoalesce |= vo.coalesce;
    }
    for (size_t p = 0; p < cfg.scalOuts.size(); ++p) {
        const ScalOutCfg &so = cfg.scalOuts[p];
        if (!so.enabled)
            continue;
        if (so.countOfVecOut >= 0) {
            lv.countScalOuts.push_back(static_cast<uint8_t>(p));
        } else {
            lv.liveScalOuts.push_back(static_cast<uint8_t>(p));
            lv.readRegs |= 1u << so.srcReg;
        }
    }
    lv.touchedRegs = lv.readRegs | lv.writtenRegs;
    return lv;
}

} // namespace plast

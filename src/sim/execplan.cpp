#include "sim/execplan.hpp"

#include <array>

#include "sim/fuexec.hpp"
#include "sim/wavefront.hpp"

namespace plast
{

const char *
schedulerName(Engine engine)
{
    return engine == Engine::kOracle ? "dense" : "activity";
}

const char *
datapathName(Engine engine)
{
    return engine == Engine::kOracle ? "interp" : "specialized";
}

namespace
{

/** One instantiation per opcode: fuApply's switch constant-folds away,
 *  leaving a bare elementwise loop over contiguous lane arrays. */
template <FuOp OP>
void
mapKernel(const Word *a, const Word *b, const Word *c, Word *dst,
          uint32_t lanes)
{
    for (uint32_t l = 0; l < lanes; ++l)
        dst[l] = fuApply(OP, a[l], b[l], c[l]);
}

} // namespace

MapKernel
mapKernelFor(FuOp op)
{
    switch (op) {
      case FuOp::kNop:    return &mapKernel<FuOp::kNop>;
      case FuOp::kIAdd:   return &mapKernel<FuOp::kIAdd>;
      case FuOp::kISub:   return &mapKernel<FuOp::kISub>;
      case FuOp::kIMul:   return &mapKernel<FuOp::kIMul>;
      case FuOp::kIDiv:   return &mapKernel<FuOp::kIDiv>;
      case FuOp::kIMod:   return &mapKernel<FuOp::kIMod>;
      case FuOp::kIMin:   return &mapKernel<FuOp::kIMin>;
      case FuOp::kIMax:   return &mapKernel<FuOp::kIMax>;
      case FuOp::kIAbs:   return &mapKernel<FuOp::kIAbs>;
      case FuOp::kAnd:    return &mapKernel<FuOp::kAnd>;
      case FuOp::kOr:     return &mapKernel<FuOp::kOr>;
      case FuOp::kXor:    return &mapKernel<FuOp::kXor>;
      case FuOp::kNot:    return &mapKernel<FuOp::kNot>;
      case FuOp::kShl:    return &mapKernel<FuOp::kShl>;
      case FuOp::kShr:    return &mapKernel<FuOp::kShr>;
      case FuOp::kILt:    return &mapKernel<FuOp::kILt>;
      case FuOp::kILe:    return &mapKernel<FuOp::kILe>;
      case FuOp::kIGt:    return &mapKernel<FuOp::kIGt>;
      case FuOp::kIGe:    return &mapKernel<FuOp::kIGe>;
      case FuOp::kIEq:    return &mapKernel<FuOp::kIEq>;
      case FuOp::kINe:    return &mapKernel<FuOp::kINe>;
      case FuOp::kFAdd:   return &mapKernel<FuOp::kFAdd>;
      case FuOp::kFSub:   return &mapKernel<FuOp::kFSub>;
      case FuOp::kFMul:   return &mapKernel<FuOp::kFMul>;
      case FuOp::kFDiv:   return &mapKernel<FuOp::kFDiv>;
      case FuOp::kFMin:   return &mapKernel<FuOp::kFMin>;
      case FuOp::kFMax:   return &mapKernel<FuOp::kFMax>;
      case FuOp::kFAbs:   return &mapKernel<FuOp::kFAbs>;
      case FuOp::kFNeg:   return &mapKernel<FuOp::kFNeg>;
      case FuOp::kFLt:    return &mapKernel<FuOp::kFLt>;
      case FuOp::kFLe:    return &mapKernel<FuOp::kFLe>;
      case FuOp::kFGt:    return &mapKernel<FuOp::kFGt>;
      case FuOp::kFGe:    return &mapKernel<FuOp::kFGe>;
      case FuOp::kFEq:    return &mapKernel<FuOp::kFEq>;
      case FuOp::kFNe:    return &mapKernel<FuOp::kFNe>;
      case FuOp::kI2F:    return &mapKernel<FuOp::kI2F>;
      case FuOp::kF2I:    return &mapKernel<FuOp::kF2I>;
      case FuOp::kMux:    return &mapKernel<FuOp::kMux>;
      case FuOp::kFMA:    return &mapKernel<FuOp::kFMA>;
      case FuOp::kIMA:    return &mapKernel<FuOp::kIMA>;
      // libm-backed transcendentals take the generic fuExec path.
      case FuOp::kFExp:
      case FuOp::kFLog:
      case FuOp::kFSqrt:
      case FuOp::kFRecip:
      case FuOp::kNumOps:
        return nullptr;
    }
    return nullptr;
}

PcuExecPlan
buildPcuPlan(const PcuCfg &cfg)
{
    PcuLiveness lv = analyzePcu(cfg);

    PcuExecPlan plan;
    plan.touchedRegs = lv.touchedRegs;
    plan.liveVecOuts = std::move(lv.liveVecOuts);
    plan.liveScalOuts = std::move(lv.liveScalOuts);
    plan.countScalOuts = std::move(lv.countScalOuts);
    plan.anyCoalesce = lv.anyCoalesce;

    plan.stages.reserve(cfg.stages.size());
    for (const StageCfg &st : cfg.stages) {
        StagePlan sp;
        sp.kind = st.kind;
        sp.op = st.op;
        sp.arity = static_cast<uint8_t>(fuOpArity(st.op));
        sp.a = st.a;
        sp.b = st.b;
        sp.c = st.c;
        sp.dstReg = st.dstReg;
        sp.setsMask = st.setsMask;
        sp.reduceDist = st.reduceDist;
        sp.accLevel = st.accLevel;
        sp.shiftAmt = st.shiftAmt;
        if (st.kind == StageKind::kReduceStep ||
            st.kind == StageKind::kAccum)
            sp.identity = fuOpIdentity(st.op);
        if (st.kind == StageKind::kMap)
            sp.kernel = mapKernelFor(st.op);
        plan.stages.push_back(sp);
    }
    return plan;
}

// --------------------------------------------------------------------
// PMU port plans
// --------------------------------------------------------------------

namespace
{

using Slot = PmuAddrPlan::Slot;
using Src = PmuAddrPlan::Slot::Src;

/**
 * Abstract value over the affine domain: slot-index `base` plus one
 * slot-index coefficient per counter level. Slot 0 is the constant 0,
 * so a default AbsVal is the constant 0 and `runConst()` means "no
 * counter term".
 */
struct AbsVal
{
    uint32_t base = 0;
    std::array<uint32_t, kMaxCtrs> coeff{};

    bool
    runConst() const
    {
        for (uint32_t c : coeff) {
            if (c != 0)
                return false;
        }
        return true;
    }
};

/** Emits the run-constant slot program while the stage walk below
 *  tracks affine shapes. Immediate-only slots are folded at build time
 *  and all slots are deduplicated, so coefficient slots for the common
 *  `ctr * imm` patterns collapse to single immediates. */
class SlotProgram
{
  public:
    SlotProgram() { slots_.push_back(Slot{}); } // slot 0: constant 0

    uint32_t
    imm(Word w)
    {
        if (w == 0)
            return 0;
        Slot s;
        s.aSrc = Src::kImm;
        s.aVal = w;
        return intern(s);
    }

    uint32_t
    scalarIn(uint8_t idx)
    {
        Slot s;
        s.aSrc = Src::kScalarIn;
        s.aVal = idx;
        return intern(s);
    }

    /** slots[a] op slots[b] op slots[c], folding immediates. */
    uint32_t
    op(FuOp o, uint32_t a, uint32_t b, uint32_t c)
    {
        if (isImm(a) && isImm(b) && isImm(c))
            return imm(fuExec(o, immVal(a), immVal(b), immVal(c)));
        Slot s;
        s.op = o;
        if (a != 0) {
            s.aSrc = Src::kSlot;
            s.aVal = a;
        }
        if (b != 0) {
            s.bSrc = Src::kSlot;
            s.bVal = b;
        }
        if (c != 0) {
            s.cSrc = Src::kSlot;
            s.cVal = c;
        }
        return intern(s);
    }

    uint32_t
    add(uint32_t a, uint32_t b)
    {
        if (a == 0)
            return b;
        if (b == 0)
            return a;
        return op(FuOp::kIAdd, a, b, 0);
    }

    uint32_t
    mul(uint32_t a, uint32_t b)
    {
        if (a == 0 || b == 0)
            return 0;
        return op(FuOp::kIMul, a, b, 0);
    }

    /** slots[a] * slots[b] + slots[c] as one multiply-add slot. */
    uint32_t
    ima(uint32_t a, uint32_t b, uint32_t c)
    {
        if (a == 0 || b == 0)
            return c;
        if (c == 0)
            return mul(a, b);
        return op(FuOp::kIMA, a, b, c);
    }

    std::vector<Slot> take() { return std::move(slots_); }

  private:
    bool
    isImm(uint32_t i) const
    {
        const Slot &s = slots_[i];
        return i == 0 || (s.op == FuOp::kNop && s.aSrc == Src::kImm &&
                          s.bSrc == Src::kZero && s.cSrc == Src::kZero);
    }

    Word
    immVal(uint32_t i) const
    {
        return i == 0 ? 0 : slots_[i].aVal;
    }

    uint32_t
    intern(const Slot &s)
    {
        for (uint32_t i = 0; i < slots_.size(); ++i) {
            const Slot &o = slots_[i];
            if (o.op == s.op && o.aSrc == s.aSrc && o.bSrc == s.bSrc &&
                o.cSrc == s.cSrc && o.aVal == s.aVal && o.bVal == s.bVal &&
                o.cVal == s.cVal)
                return i;
        }
        slots_.push_back(s);
        return static_cast<uint32_t>(slots_.size() - 1);
    }

    std::vector<Slot> slots_;
};

/**
 * Abstractly interpret the scalar address program. Returns false when
 * any stage uses a counter non-affinely (or reads state the abstract
 * domain does not model), in which case the port keeps the interpreted
 * evalScalarStages path.
 */
bool
lowerAddrProgram(const std::vector<StageCfg> &stages, uint8_t resultReg,
                 PmuAddrPlan &out)
{
    SlotProgram prog;
    std::array<AbsVal, kMaxRegs> regs{};

    auto operand = [&](const Operand &opnd, AbsVal &v) -> bool {
        v = AbsVal{};
        switch (opnd.kind) {
          case OperandKind::kNone:
          case OperandKind::kLaneId: // scalar datapaths read lane 0
            return true;
          case OperandKind::kImm:
            v.base = prog.imm(opnd.imm);
            return true;
          case OperandKind::kScalarIn:
            v.base = prog.scalarIn(opnd.index);
            return true;
          case OperandKind::kCounter:
            if (opnd.index >= kMaxCtrs)
                return false;
            v.coeff[opnd.index] = prog.imm(1);
            return true;
          case OperandKind::kReg:
            if (opnd.index >= kMaxRegs)
                return false;
            v = regs[opnd.index];
            return true;
          case OperandKind::kVectorIn:
            return false;
        }
        return false;
    };

    for (const StageCfg &st : stages) {
        if (st.kind != StageKind::kMap || st.dstReg >= kMaxRegs)
            return false;
        AbsVal a, b, c, res;
        if (!operand(st.a, a) || !operand(st.b, b) || !operand(st.c, c))
            return false;
        switch (st.op) {
          case FuOp::kNop:
            res = a;
            break;
          case FuOp::kIAdd:
          case FuOp::kISub:
            res.base = st.op == FuOp::kIAdd ? prog.add(a.base, b.base)
                                            : prog.op(FuOp::kISub, a.base,
                                                      b.base, 0);
            for (uint32_t i = 0; i < kMaxCtrs; ++i) {
                res.coeff[i] =
                    st.op == FuOp::kIAdd
                        ? prog.add(a.coeff[i], b.coeff[i])
                        : (a.coeff[i] == 0 && b.coeff[i] == 0
                               ? 0
                               : prog.op(FuOp::kISub, a.coeff[i],
                                         b.coeff[i], 0));
            }
            break;
          case FuOp::kIMul: {
            // Affine only when one side is run-constant; 2^32 is a
            // ring, so the product distributes over the other side.
            if (!a.runConst() && !b.runConst())
                return false;
            const AbsVal &affn = a.runConst() ? b : a;
            const AbsVal &k = a.runConst() ? a : b;
            res.base = prog.mul(affn.base, k.base);
            for (uint32_t i = 0; i < kMaxCtrs; ++i)
                res.coeff[i] = prog.mul(affn.coeff[i], k.base);
            break;
          }
          case FuOp::kIMA: {
            // a*b + c: the product term as for kIMul, then c added
            // slot-wise, all in one mod-2^32 multiply-add per slot.
            if (!a.runConst() && !b.runConst())
                return false;
            const AbsVal &affn = a.runConst() ? b : a;
            const AbsVal &k = a.runConst() ? a : b;
            res.base = prog.ima(affn.base, k.base, c.base);
            for (uint32_t i = 0; i < kMaxCtrs; ++i)
                res.coeff[i] = prog.ima(affn.coeff[i], k.base, c.coeff[i]);
            break;
          }
          case FuOp::kShl:
            // a << s == a * 2^s (mod 2^32): linear in a.
            if (!b.runConst())
                return false;
            res.base = a.base == 0
                           ? 0
                           : prog.op(FuOp::kShl, a.base, b.base, 0);
            for (uint32_t i = 0; i < kMaxCtrs; ++i)
                res.coeff[i] = a.coeff[i] == 0
                                   ? 0
                                   : prog.op(FuOp::kShl, a.coeff[i],
                                             b.base, 0);
            break;
          default:
            // Any op over run-constants is itself a run-constant.
            if (!a.runConst() || !b.runConst() || !c.runConst())
                return false;
            res.base = prog.op(st.op, a.base, b.base, c.base);
            break;
        }
        regs[st.dstReg] = res;
    }

    if (resultReg >= kMaxRegs)
        return false;
    const AbsVal &r = regs[resultReg];
    out.affine = true;
    out.baseSlot = r.base;
    out.terms.clear();
    for (uint32_t i = 0; i < kMaxCtrs; ++i) {
        if (r.coeff[i] != 0)
            out.terms.emplace_back(static_cast<uint8_t>(i), r.coeff[i]);
    }
    out.slots = prog.take();
    return true;
}

} // namespace

PmuPortPlan
buildPmuPortPlan(const PmuPortCfg &cfg, bool isWrite,
                 const ScratchCfg &scratch, uint32_t banks, uint32_t lanes)
{
    PmuPortPlan plan;
    if (!cfg.enabled || cfg.addrVecIn >= 0 || cfg.appendMode ||
        scratch.mode == BankingMode::kFifo ||
        (isWrite && cfg.broadcast))
        return plan;
    if (!lowerAddrProgram(cfg.addrStages, cfg.addrReg, plan.addr))
        return plan;
    plan.fastAccess = true;

    // Can this port ever pay a bank conflict? Broadcast fans one word
    // out (the interpreter hard-codes one cycle); a scalar access
    // touches one bank; a linear vector access is conflict-free when
    // consecutive words land in distinct banks.
    if (cfg.broadcast || !cfg.vecLinear ||
        scratch.mode == BankingMode::kDup) {
        plan.conflictFree = true;
    } else if (banks >= lanes &&
               (scratch.mode != BankingMode::kLineBuffer ||
                (banks > 0 && scratch.sizeWords % banks == 0))) {
        plan.conflictFree = true;
    }
    return plan;
}

} // namespace plast

#include "sim/unitcommon.hpp"

#include <algorithm>

#include "base/logging.hpp"
#include "sim/fuexec.hpp"
#include "sim/scheduler.hpp"

namespace plast
{

void
SimUnit::setStuck(bool s)
{
    stuck_ = s;
    if (s && sched())
        sched()->unitStuck(this);
}

bool
tokensReady(const ControlCfg &ctrl, const UnitPorts &ports,
            bool selfStarted)
{
    if (ctrl.tokenIns.empty())
        return !selfStarted;
    for (uint8_t idx : ctrl.tokenIns) {
        panic_if(idx >= ports.ctlIn.size(), "token input %u out of range",
                 idx);
        if (!ports.ctlIn[idx].hasToken())
            return false;
    }
    return true;
}

void
consumeTokens(const ControlCfg &ctrl, UnitPorts &ports)
{
    for (uint8_t idx : ctrl.tokenIns)
        ports.ctlIn[idx].consume();
}

bool
canPushDone(const ControlCfg &ctrl, const UnitPorts &ports)
{
    for (uint8_t idx : ctrl.doneOuts) {
        panic_if(idx >= ports.ctlOut.size(), "done output %u out of range",
                 idx);
        if (!ports.ctlOut[idx].canPush())
            return false;
    }
    return true;
}

void
pushDone(const ControlCfg &ctrl, UnitPorts &ports)
{
    for (uint8_t idx : ctrl.doneOuts)
        ports.ctlOut[idx].push(Token{});
}

std::vector<uint8_t>
chainScalarRefs(const ChainCfg &chain)
{
    std::vector<uint8_t> refs;
    for (const auto &c : chain.ctrs) {
        if (c.maxFromScalarIn >= 0)
            refs.push_back(static_cast<uint8_t>(c.maxFromScalarIn));
    }
    return refs;
}

void
stageRefs(const std::vector<StageCfg> &stages, std::vector<uint8_t> &scalars,
          std::vector<uint8_t> &vectors)
{
    auto note = [&](const Operand &op) {
        if (op.kind == OperandKind::kScalarIn)
            scalars.push_back(op.index);
        else if (op.kind == OperandKind::kVectorIn)
            vectors.push_back(op.index);
    };
    for (const auto &st : stages) {
        note(st.a);
        note(st.b);
        note(st.c);
    }
    auto uniq = [](std::vector<uint8_t> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    };
    uniq(scalars);
    uniq(vectors);
}

bool
scalarsReady(const std::vector<uint8_t> &refs, const UnitPorts &ports)
{
    for (uint8_t idx : refs) {
        panic_if(idx >= ports.scalIn.size(), "scalar input %u out of range",
                 idx);
        if (!ports.scalIn[idx].canPop())
            return false;
    }
    return true;
}

void
popScalars(const std::vector<uint8_t> &refs, UnitPorts &ports)
{
    for (uint8_t idx : refs)
        ports.scalIn[idx].pop();
}

std::vector<int64_t>
resolveBounds(const ChainCfg &chain, const UnitPorts &ports)
{
    std::vector<int64_t> bounds;
    bounds.reserve(chain.ctrs.size());
    for (const auto &c : chain.ctrs) {
        if (c.maxFromScalarIn >= 0) {
            Word w = ports.scalIn[c.maxFromScalarIn].front();
            bounds.push_back(static_cast<int64_t>(wordToInt(w)) *
                             c.boundScale);
        } else {
            bounds.push_back(c.max);
        }
    }
    return bounds;
}

namespace
{

Word
scalarOperand(const Operand &op, const Wavefront &wf,
              const UnitPorts &ports, const ScalarRegs &regs)
{
    switch (op.kind) {
      case OperandKind::kNone:
        return 0;
      case OperandKind::kReg:
        return regs.reg[op.index];
      case OperandKind::kCounter:
        return static_cast<Word>(wf.ctrLane(op.index, 0));
      case OperandKind::kScalarIn:
        return ports.scalIn[op.index].front();
      case OperandKind::kVectorIn:
        return wf.vecIn[op.index].lane[0];
      case OperandKind::kImm:
        return op.imm;
      case OperandKind::kLaneId:
        return 0;
    }
    return 0;
}

} // namespace

Word
evalScalarStages(const std::vector<StageCfg> &stages, uint8_t resultReg,
                 const Wavefront &wf, const UnitPorts &ports,
                 ScalarRegs &regs)
{
    for (const auto &st : stages) {
        panic_if(st.kind != StageKind::kMap,
                 "scalar datapaths support only map stages");
        Word a = scalarOperand(st.a, wf, ports, regs);
        Word b = scalarOperand(st.b, wf, ports, regs);
        Word c = scalarOperand(st.c, wf, ports, regs);
        regs.reg[st.dstReg] = fuExec(st.op, a, b, c);
    }
    return regs.reg[resultReg];
}

} // namespace plast

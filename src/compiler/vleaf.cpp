#include "compiler/vleaf.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "base/logging.hpp"
#include "base/rng.hpp"
#include "sim/fuexec.hpp"

namespace plast::compiler
{

using namespace pir;

namespace
{

/** Does the expression transitively read memory or streams? */
bool
reachesData(const Program &prog, ExprId id)
{
    const Expr &e = prog.exprs[id];
    switch (e.kind) {
      case ExprKind::kLoadSram:
      case ExprKind::kStreamIn:
        return true;
      case ExprKind::kAlu:
        return (e.a != kNone && reachesData(prog, e.a)) ||
               (e.b != kNone && reachesData(prog, e.b)) ||
               (e.c != kNone && reachesData(prog, e.c));
      default:
        return false;
    }
}

/** Probe-evaluate a data-free expression at a given lane. */
int64_t
probeEval(const Program &prog, const Node &leaf, ExprId id,
          const std::map<CtrId, int64_t> &env, uint32_t lane)
{
    const Expr &e = prog.exprs[id];
    switch (e.kind) {
      case ExprKind::kConst:
        return wordToInt(e.cval);
      case ExprKind::kArg:
        return wordToInt(prog.args[e.arg].value);
      case ExprKind::kCtr: {
        int64_t v = env.at(e.ctr);
        const CtrDecl &cd = prog.ctrs[e.ctr];
        // Vectorized leaf counter: lane offset applies.
        bool is_leaf_vec = cd.vectorized &&
                           std::find(leaf.leafCtrs.begin(),
                                     leaf.leafCtrs.end(),
                                     e.ctr) != leaf.leafCtrs.end();
        return is_leaf_vec ? v + static_cast<int64_t>(lane) * cd.step : v;
      }
      case ExprKind::kLaneId:
        return lane;
      case ExprKind::kScalarIn:
        return 7; // opaque but lane-invariant
      case ExprKind::kAlu: {
        Word a = e.a != kNone ? intToWord(static_cast<int32_t>(
                                    probeEval(prog, leaf, e.a, env, lane)))
                              : 0;
        Word b = e.b != kNone ? intToWord(static_cast<int32_t>(
                                    probeEval(prog, leaf, e.b, env, lane)))
                              : 0;
        Word c = e.c != kNone ? intToWord(static_cast<int32_t>(
                                    probeEval(prog, leaf, e.c, env, lane)))
                              : 0;
        return wordToInt(fuExec(e.alu, a, b, c));
      }
      default:
        panic("probeEval: unexpected expr kind");
    }
}

} // namespace

AccessClass
classifyAddr(const Program &prog, const Node &leaf, ExprId addr)
{
    if (reachesData(prog, addr))
        return AccessClass::kGather;

    Rng rng(0xabcdef1234ull);
    bool linear = true, invariant = true;
    for (int trial = 0; trial < 6; ++trial) {
        std::map<CtrId, int64_t> env;
        for (size_t c = 0; c < prog.ctrs.size(); ++c) {
            env[static_cast<CtrId>(c)] =
                prog.ctrs[c].min +
                prog.ctrs[c].step *
                    static_cast<int64_t>(rng.nextBounded(7));
        }
        int64_t v0 = probeEval(prog, leaf, addr, env, 0);
        for (uint32_t lane : {1u, 2u, 5u}) {
            int64_t vl = probeEval(prog, leaf, addr, env, lane);
            if (vl - v0 != static_cast<int64_t>(lane))
                linear = false;
            if (vl != v0)
                invariant = false;
        }
    }
    if (linear)
        return AccessClass::kVecLinear;
    if (invariant)
        return AccessClass::kBroadcast;
    return AccessClass::kGather;
}

namespace
{

/** Builder state while lowering one leaf. */
struct LowerCtx
{
    const Program &prog;
    const Node &leaf;
    NodeId leafId;
    uint32_t lanes;
    VirtualLeaf out;
    std::map<ExprId, int32_t> memo;

    int32_t
    value(VValue v)
    {
        out.values.push_back(v);
        return static_cast<int32_t>(out.values.size() - 1);
    }

    int32_t
    appendOp(VOp op)
    {
        out.ops.push_back(op);
        int32_t opIdx = static_cast<int32_t>(out.ops.size() - 1);
        VValue v;
        v.kind = VValue::Kind::kOp;
        v.def = opIdx;
        int32_t vid = value(v);
        out.ops[opIdx].result = vid;
        return vid;
    }

    int32_t
    scalSource(const ScalSource &s)
    {
        for (size_t i = 0; i < out.scalSources.size(); ++i) {
            const ScalSource &o = out.scalSources[i];
            if (o.kind == s.kind && o.ctr == s.ctr &&
                o.scalarIn == s.scalarIn &&
                o.boundCtrLevel == s.boundCtrLevel)
                return static_cast<int32_t>(i);
        }
        out.scalSources.push_back(s);
        return static_cast<int32_t>(out.scalSources.size() - 1);
    }

    int leafCtrLevel(CtrId c) const
    {
        for (size_t i = 0; i < leaf.leafCtrs.size(); ++i) {
            if (leaf.leafCtrs[i] == c)
                return static_cast<int>(i);
        }
        return -1;
    }

    int32_t visit(ExprId id);

    /** Ensure the value is produced by an op (so it has a register). */
    int32_t
    materialize(int32_t vid)
    {
        if (out.values[vid].kind == VValue::Kind::kOp)
            return vid;
        VOp op;
        op.kind = StageKind::kMap;
        op.op = FuOp::kNop;
        op.a = vid;
        return appendOp(op);
    }
};

int32_t
LowerCtx::visit(ExprId id)
{
    auto it = memo.find(id);
    if (it != memo.end())
        return it->second;

    const Expr &e = prog.exprs[id];
    int32_t vid = -1;
    switch (e.kind) {
      case ExprKind::kConst: {
        VValue v;
        v.kind = VValue::Kind::kImm;
        v.imm = e.cval;
        vid = value(v);
        break;
      }
      case ExprKind::kArg: {
        VValue v;
        v.kind = VValue::Kind::kImm;
        v.imm = prog.args[e.arg].value;
        vid = value(v);
        break;
      }
      case ExprKind::kLaneId: {
        VValue v;
        v.kind = VValue::Kind::kLane;
        vid = value(v);
        break;
      }
      case ExprKind::kCtr: {
        int level = leafCtrLevel(e.ctr);
        if (level >= 0) {
            VValue v;
            v.kind = VValue::Kind::kCtr;
            v.index = level;
            vid = value(v);
        } else {
            ScalSource s;
            s.kind = ScalSource::Kind::kOuterCtr;
            s.ctr = e.ctr;
            VValue v;
            v.kind = VValue::Kind::kScalar;
            v.index = scalSource(s);
            vid = value(v);
        }
        break;
      }
      case ExprKind::kScalarIn: {
        ScalSource s;
        s.kind = ScalSource::Kind::kLeafScalar;
        s.scalarIn = e.scalar;
        VValue v;
        v.kind = VValue::Kind::kScalar;
        v.index = scalSource(s);
        vid = value(v);
        break;
      }
      case ExprKind::kStreamIn: {
        VecSource src;
        src.kind = VecSource::Kind::kDramStream;
        src.expr = id;
        src.access = AccessClass::kVecLinear;
        out.vecSources.push_back(src);
        VValue v;
        v.kind = VValue::Kind::kVecIn;
        v.index = static_cast<int32_t>(out.vecSources.size() - 1);
        vid = value(v);
        break;
      }
      case ExprKind::kLoadSram: {
        AccessClass cls = classifyAddr(prog, leaf, e.addr);
        VecSource src;
        src.expr = id;
        src.access = cls;
        if (cls == AccessClass::kGather) {
            src.kind = VecSource::Kind::kGatherData;
            int32_t addr_v = materialize(visit(e.addr));
            src.addrValue = addr_v;
            // The address round-trips through the PMU: everything that
            // consumes the gathered data must sit in a later PCU.
            out.ops[out.values[addr_v].def].barrierAfter = true;
            VEmission em;
            em.kind = VEmission::Kind::kVecOut;
            em.value = addr_v;
            em.cond = EmitCond::everyWavefront();
            em.gatherVecSource =
                static_cast<int32_t>(out.vecSources.size());
            out.emissions.push_back(em);
        } else {
            src.kind = VecSource::Kind::kSramLoad;
        }
        out.vecSources.push_back(src);
        VValue v;
        v.kind = VValue::Kind::kVecIn;
        v.index = static_cast<int32_t>(out.vecSources.size() - 1);
        vid = value(v);
        break;
      }
      case ExprKind::kAlu: {
        int32_t a = e.a != kNone ? visit(e.a) : -1;
        int32_t b = e.b != kNone ? visit(e.b) : -1;
        int32_t c = e.c != kNone ? visit(e.c) : -1;
        VOp op;
        op.kind = StageKind::kMap;
        op.op = e.alu;
        op.a = a;
        op.b = b;
        op.c = c;
        vid = appendOp(op);
        break;
      }
    }
    memo[id] = vid;
    return vid;
}

} // namespace

VirtualLeaf
lowerLeaf(const Program &prog, NodeId leafId, uint32_t lanes)
{
    const Node &leaf = prog.nodes[leafId];
    panic_if(leaf.kind != NodeKind::kCompute, "lowerLeaf on non-compute");

    LowerCtx ctx{prog, leaf, leafId, lanes, {}, {}};
    ctx.out.node = leafId;
    ctx.out.name = leaf.name;

    // Counter chain with resolved static bounds; dynamic bounds become
    // scalar sources.
    for (size_t lvl = 0; lvl < leaf.leafCtrs.size(); ++lvl) {
        CtrId cid = leaf.leafCtrs[lvl];
        const CtrDecl &cd = prog.ctrs[cid];
        CounterCfg cc;
        cc.min = cd.min;
        cc.step = cd.step;
        cc.vectorized = cd.vectorized;
        int8_t dyn = -1;
        if (cd.boundArg != kNone) {
            cc.max = wordToInt(prog.args[cd.boundArg].value);
        } else if (cd.boundSinkNode != kNone) {
            ScalSource s;
            s.kind = ScalSource::Kind::kDynBound;
            s.boundCtrLevel = static_cast<int32_t>(lvl);
            s.ctr = cid;
            dyn = static_cast<int8_t>(ctx.scalSource(s));
            cc.max = 0; // resolved at run time
        } else {
            cc.max = cd.max;
        }
        ctx.out.chain.ctrs.push_back(cc);
        ctx.out.ctrIds.push_back(cid);
        ctx.out.dynBoundScalar.push_back(dyn);
    }

    // Lower each sink.
    for (size_t s = 0; s < leaf.sinks.size(); ++s) {
        const Sink &sk = leaf.sinks[s];
        switch (sk.kind) {
          case SinkKind::kStoreSram: {
            int32_t val = ctx.materialize(ctx.visit(sk.value));
            AccessClass cls = classifyAddr(prog, leaf, sk.addr);
            VEmission em;
            em.kind = VEmission::Kind::kVecOut;
            em.sinkIdx = static_cast<int32_t>(s);
            em.value = val;
            em.cond = EmitCond::everyWavefront();
            if (cls == AccessClass::kGather) {
                // Scatter within the scratchpad: emit the computed
                // address vector alongside the data.
                int32_t addr_v = ctx.materialize(ctx.visit(sk.addr));
                VEmission ea;
                ea.kind = VEmission::Kind::kVecOut;
                ea.sinkIdx = static_cast<int32_t>(s);
                ea.value = addr_v;
                ea.cond = EmitCond::everyWavefront();
                ea.scatterAddrForSink = static_cast<int32_t>(s);
                ctx.out.emissions.push_back(ea);
            }
            ctx.out.emissions.push_back(em);
            break;
          }
          case SinkKind::kFold: {
            int32_t val = ctx.visit(sk.value);
            int lvl = ctx.leafCtrLevel(sk.foldLevel);
            if (lvl < 0) {
                ctx.out.error =
                    strfmt("%s: fold level is not a leaf counter",
                           leaf.name.c_str());
                return ctx.out;
            }
            if (sk.crossLane) {
                val = ctx.materialize(val);
                for (uint32_t dist = 1; dist < lanes; dist *= 2) {
                    VOp op;
                    op.kind = StageKind::kReduceStep;
                    op.op = sk.foldOp;
                    op.a = val;
                    op.reduceDist = static_cast<uint8_t>(dist);
                    val = ctx.appendOp(op);
                }
            }
            VOp acc;
            acc.kind = StageKind::kAccum;
            acc.op = sk.foldOp;
            acc.a = val;
            acc.accLevel = static_cast<uint8_t>(lvl);
            val = ctx.appendOp(acc);
            if (sk.postScale != kNone || sk.postOffset != kNone) {
                int32_t sc = sk.postScale != kNone
                                 ? ctx.visit(sk.postScale)
                                 : ctx.value({VValue::Kind::kImm,
                                              floatToWord(1.0f), -1, -1});
                int32_t of = sk.postOffset != kNone
                                 ? ctx.visit(sk.postOffset)
                                 : ctx.value({VValue::Kind::kImm,
                                              floatToWord(0.0f), -1, -1});
                VOp fma;
                fma.kind = StageKind::kMap;
                fma.op = FuOp::kFMA;
                fma.a = val;
                fma.b = sc;
                fma.c = of;
                val = ctx.appendOp(fma);
            }

            VEmission em;
            em.sinkIdx = static_cast<int32_t>(s);
            em.value = val;
            em.cond = EmitCond::lastAtLevel(static_cast<uint8_t>(lvl));
            em.kind = (sk.dest == FoldDest::kSramAddr)
                          ? VEmission::Kind::kVecOut
                          : VEmission::Kind::kScalOut;
            ctx.out.emissions.push_back(em);
            break;
          }
          case SinkKind::kFlatMapSram: {
            int32_t pred = ctx.visit(sk.pred);
            VOp mask;
            mask.kind = StageKind::kMap;
            mask.op = FuOp::kNop;
            mask.a = pred;
            mask.setsMask = true;
            ctx.appendOp(mask);
            int32_t val = ctx.materialize(ctx.visit(sk.value));
            VEmission em;
            em.kind = VEmission::Kind::kVecOut;
            em.sinkIdx = static_cast<int32_t>(s);
            em.value = val;
            em.cond = EmitCond::everyWavefront();
            em.coalesce = true;
            ctx.out.emissions.push_back(em);
            VEmission cnt;
            cnt.kind = VEmission::Kind::kCountOut;
            cnt.sinkIdx = static_cast<int32_t>(s);
            cnt.countOfSink = static_cast<int32_t>(s);
            ctx.out.emissions.push_back(cnt);
            break;
          }
          case SinkKind::kStreamOut: {
            int32_t val = ctx.materialize(ctx.visit(sk.value));
            VEmission em;
            em.kind = VEmission::Kind::kVecOut;
            em.sinkIdx = static_cast<int32_t>(s);
            em.value = val;
            em.cond = EmitCond::everyWavefront();
            ctx.out.emissions.push_back(em);
            break;
          }
          case SinkKind::kScatterOut: {
            if (sk.scatterPred != kNone) {
                int32_t pred = ctx.visit(sk.scatterPred);
                VOp mask;
                mask.kind = StageKind::kMap;
                mask.op = FuOp::kNop;
                mask.a = pred;
                mask.setsMask = true;
                ctx.appendOp(mask);
            }
            int32_t addr_v = ctx.materialize(ctx.visit(sk.dramAddr));
            int32_t val = ctx.materialize(ctx.visit(sk.value));
            VEmission ea;
            ea.kind = VEmission::Kind::kVecOut;
            ea.sinkIdx = static_cast<int32_t>(s);
            ea.value = addr_v;
            ea.cond = EmitCond::everyWavefront();
            ea.scatterAddrForSink = static_cast<int32_t>(s);
            ctx.out.emissions.push_back(ea);
            VEmission em;
            em.kind = VEmission::Kind::kVecOut;
            em.sinkIdx = static_cast<int32_t>(s);
            em.value = val;
            em.cond = EmitCond::everyWavefront();
            ctx.out.emissions.push_back(em);
            break;
          }
        }
    }

    // A leaf whose sinks produced no pipeline ops still needs one stage.
    if (ctx.out.ops.empty()) {
        VOp nop;
        nop.kind = StageKind::kMap;
        nop.op = FuOp::kNop;
        ctx.appendOp(nop);
    }
    return ctx.out;
}

std::vector<StageCfg>
lowerScalarExpr(const Program &prog, ExprId expr,
                const std::map<CtrId, int> &ctrLevel,
                const std::map<CtrId, int> &scalarPort, uint8_t &addrReg,
                std::string &err)
{
    std::vector<StageCfg> stages;
    uint8_t nextReg = 0;

    // Malformed user expressions become diagnosed errors; the first
    // one wins.
    auto bad = [&](const std::string &msg) {
        if (err.empty())
            err = msg;
    };

    // Recursive lowering returning an Operand.
    std::function<Operand(ExprId)> lower = [&](ExprId id) -> Operand {
        if (!err.empty())
            return Operand::none();
        const Expr &e = prog.exprs[id];
        switch (e.kind) {
          case ExprKind::kConst:
            return Operand::immWord(e.cval);
          case ExprKind::kArg:
            return Operand::immWord(prog.args[e.arg].value);
          case ExprKind::kCtr: {
            auto lit = ctrLevel.find(e.ctr);
            if (lit != ctrLevel.end())
                return Operand::ctr(static_cast<uint8_t>(lit->second));
            auto sit = scalarPort.find(e.ctr);
            if (sit == scalarPort.end()) {
                bad(strfmt(
                    "scalar expr references unmapped counter '%s'",
                    prog.ctrs[e.ctr].name.c_str()));
                return Operand::none();
            }
            return Operand::scalarIn(static_cast<uint8_t>(sit->second));
          }
          case ExprKind::kAlu: {
            Operand a = e.a != kNone ? lower(e.a) : Operand::none();
            Operand b = e.b != kNone ? lower(e.b) : Operand::none();
            Operand c = e.c != kNone ? lower(e.c) : Operand::none();
            StageCfg st;
            st.kind = StageKind::kMap;
            st.op = e.alu;
            st.a = a;
            st.b = b;
            st.c = c;
            if (nextReg >= kMaxLanes) {
                bad("scalar expr too deep");
                return Operand::none();
            }
            st.dstReg = nextReg++;
            stages.push_back(st);
            return Operand::reg(st.dstReg);
          }
          default:
            bad("scalar address expression may only use counters, "
                "arguments and ALU ops");
            return Operand::none();
        }
    };

    Operand root = lower(expr);
    if (!err.empty()) {
        stages.clear();
        addrReg = 0;
        return stages;
    }
    if (root.kind != OperandKind::kReg) {
        StageCfg st;
        st.kind = StageKind::kMap;
        st.op = FuOp::kNop;
        st.a = root;
        st.dstReg = nextReg++;
        stages.push_back(st);
        root = Operand::reg(st.dstReg);
    }
    addrReg = root.index;
    return stages;
}

} // namespace plast::compiler

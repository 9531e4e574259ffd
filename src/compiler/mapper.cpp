#include "compiler/mapper.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "base/logging.hpp"
#include "base/profile.hpp"
#include "compiler/analysis.hpp"
#include "compiler/place.hpp"
#include "compiler/vleaf.hpp"

namespace plast::compiler
{

using namespace pir;

namespace
{

/** Per-unit port-allocation cursors. */
struct PortAlloc
{
    uint32_t si = 0, vi = 0, ci = 0;
    uint32_t so = 0, vo = 0, co = 0;
};

/** Which ControlCfg inside a unit a token attaches to. */
enum class CtrlSel : uint8_t { kMain, kPmuWrite, kPmuWrite2, kPmuRead };

struct CtrlHandle
{
    UnitRef unit;
    CtrlSel sel = CtrlSel::kMain;

    auto key() const { return std::make_tuple(unit.cls, unit.index, sel); }
    bool operator<(const CtrlHandle &o) const { return key() < o.key(); }
    bool operator==(const CtrlHandle &o) const { return key() == o.key(); }
};

/** A pending scalar-input connection. */
struct ScalarReq
{
    UnitRef unit;
    uint8_t port;
    // Source: an outer counter export, or a leaf sink's scalar stream.
    bool isCtr = false;
    CtrId ctr = kNone;
    NodeId sinkNode = kNone;
    int32_t sinkIdx = kNone;
    /** The node whose runs consume this scalar (pop cadence). */
    NodeId consumer = kNone;
};

struct Cluster
{
    std::vector<CtrlHandle> triggers;
    std::vector<CtrlHandle> dones;
};

UnitRef
pcuAt(int index)
{
    return {UnitClass::kPcu, static_cast<uint16_t>(index)};
}

UnitRef
pmuAt(int index)
{
    return {UnitClass::kPmu, static_cast<uint16_t>(index)};
}

/** The value and scatter-address vector emissions of sink `s`, -1
 *  where absent (gather-address emissions belong to no sink). */
std::pair<int, int>
sinkEmissions(const VirtualLeaf &vl, int32_t s)
{
    int val = -1, addr = -1;
    for (size_t e = 0; e < vl.emissions.size(); ++e) {
        const VEmission &em = vl.emissions[e];
        if (em.sinkIdx == s && em.kind == VEmission::Kind::kVecOut)
            (em.scatterAddrForSink >= 0 ? addr : val) = static_cast<int>(e);
    }
    return {val, addr};
}

/** An address-datapath stage: register `dst` = op(a, b, c). */
StageCfg
addrStage(FuOp op, Operand a, Operand b, uint8_t dst,
          Operand c = Operand::none())
{
    StageCfg st;
    st.op = op;
    st.a = a;
    st.b = b;
    st.c = c;
    st.dstReg = dst;
    return st;
}

/** What construction hands place-and-route and the report. */
struct Construction
{
    /** Logical config: units in construction order, channels between
     *  logical unit refs. */
    FabricConfig fabric;
    std::vector<SpillAction> spills;
    /** The first failure and the resource it names ("" when none). */
    std::string error, binding;
};

/**
 * Construction (§3.6 steps 3–5): unit configurations for the analysed
 * program, their data channels and the token / credit control graph.
 * The members are the wiring state the steps share.
 */
class Codegen
{
  public:
    Codegen(const Program &prog, const Analysis &an,
            const ArchParams &params)
        : prog_(prog), an_(an), P_(params)
    {
        fab_.params = params;
        if (!an.error.empty())
            fail(an.error, "pcu.pipeline");
    }

    /** Build every unit and channel; N-buffer depths are planned once
     *  PCU construction succeeds. */
    Construction run(bool allowSpill);

  private:
    void createPcus();
    void createPmus();
    void createAgs();
    void createBoxes();
    void wireScalars();
    void wireControl();

    // helpers
    int64_t ctrTrips(CtrId c) const;
    int64_t runsPerIter(NodeId leaf, NodeId ancestor) const;
    void memsTouched(NodeId n, std::set<MemId> &reads,
                     std::set<MemId> &writes) const;
    ControlCfg &ctrlOf(const CtrlHandle &h);
    PortAlloc &
    portsOf(const UnitRef &u)
    {
        return ports_[static_cast<size_t>(u.cls)][u.index];
    }
    /** Port cursors for the next unit of class `cls`, and its ref. */
    UnitRef
    newPorts(UnitClass cls)
    {
        auto &ports = ports_[static_cast<size_t>(cls)];
        ports.emplace_back();
        return {cls, static_cast<uint16_t>(ports.size() - 1)};
    }
    void connect(NetKind kind, UnitRef src, uint32_t sp, UnitRef dst,
                 uint32_t dp, uint32_t capacity = 16,
                 uint32_t initialTokens = 0);
    /** A control channel on fresh ports: (out port, in port). */
    std::pair<uint8_t, uint8_t> controlEdge(const UnitRef &from,
                                            const UnitRef &to);
    void tokenEdge(const CtrlHandle &from, const CtrlHandle &to);
    /** Scalar port on `unit` fed by outer counter `c`. */
    uint32_t scalarForCtr(const UnitRef &unit, CtrId c);
    /** Scalar port on `unit` fed by a sink's scalar value. */
    uint32_t scalarForSink(const UnitRef &unit, NodeId node, int32_t sink);
    /** Build a chain cfg + dynamic-bound hookup for an arbitrary unit. */
    ChainCfg buildChain(const std::vector<CtrId> &ctrs, const UnitRef &unit,
                        bool devectorize = false);
    /** Stages for an addr expr on a PMU/AG datapath. */
    std::vector<StageCfg> addrStages(ExprId expr,
                                     const std::vector<CtrId> &chainCtrs,
                                     const UnitRef &unit, uint8_t &reg);
    /** Row length and per-command block of a dense tile load. The
     *  AG's command size and the PMU write port's vector framing both
     *  come from here, so the two always agree. */
    struct LoadBlock
    {
        int64_t rowWords = 0;
        int64_t block = 0;
    };
    LoadBlock loadBlock(const TransferDesc &x) const;

    /** Record the first failure, with the resource it binds on. */
    void
    fail(const std::string &msg, const char *resource = "compile")
    {
        if (ok_) {
            ok_ = false;
            error_ = msg;
            binding_ = resource;
        }
    }

    // ---- inputs --------------------------------------------------------
    const Program &prog_;
    const Analysis &an_;
    const ArchParams &P_;
    DepthPlan plan_;

    bool ok_ = true;
    std::string error_, binding_;
    FabricConfig fab_;
    /** Port cursors per unit, indexed by UnitClass then logical index. */
    std::array<std::vector<PortAlloc>, 4> ports_;

    std::map<NodeId, int> boxOf_;

    /** Vector-source consumer ports: (leaf, vecSourceIdx) ->
     *  [(pcu, vecIn port)] across chunks. */
    std::map<std::pair<NodeId, int>, std::vector<std::pair<int, int>>>
        vecSrcPorts_;
    /** Emission sources: (leaf, emission idx) -> (pcu, port). */
    struct EmitSrc
    {
        int pcu = -1;
        int port = -1;
    };
    std::map<std::pair<NodeId, int>, EmitSrc> emitVec_;
    /** Scalar sink registry: (node, sinkIdx) -> (pcu, scal out port). */
    std::map<std::pair<NodeId, int32_t>, EmitSrc> sinkScalar_;

    std::vector<ScalarReq> scalarReqs_;
    /** Node whose unit configs are currently being generated; recorded
     *  into scalar requests to compute export pop cadences. */
    NodeId curConsumer_ = kNone;
    /** Box export ports: (ctr) -> (box, port). */
    std::map<CtrId, std::pair<int, int>> exports_;

    std::map<NodeId, Cluster> clusters_;

    // Precise dependence-token sources (§3.5): the done pulses that
    // carry a RAW/WAR edge come from the ports that actually produce /
    // consume the shared data, keeping token fan-out linear.
    std::map<std::tuple<MemId, NodeId, NodeId>, std::vector<CtrlHandle>>
        writeHandles_; ///< (mem, writer node, instance owner)
    std::map<std::pair<MemId, NodeId>, std::vector<CtrlHandle>>
        allWriteHandles_; ///< (mem, writer node): every instance
    std::map<std::pair<MemId, NodeId>, std::vector<CtrlHandle>>
        readHandles_; ///< (mem, reader node)
    std::map<NodeId, std::vector<CtrlHandle>> storeAgs_;
    std::map<NodeId, CtrlHandle> lastPcu_;

    /** Transfer-load / gather-dst data inputs: xfer -> (pmu, port). */
    std::map<NodeId, std::vector<std::pair<int, int>>> xferWritePorts_;
    /** Transfer-store / gather-addr source PMU per transfer. */
    std::map<NodeId, int> xferReadPmu_;
};

// =====================================================================
// Shared helpers
// =====================================================================

int64_t
Codegen::ctrTrips(CtrId c) const
{
    const CtrDecl &cd = prog_.ctrs[c];
    int64_t bound;
    if (cd.boundArg != kNone)
        bound = wordToInt(prog_.args[cd.boundArg].value);
    else if (cd.boundSinkNode != kNone)
        return -1; // dynamic
    else
        bound = cd.max;
    int64_t span = bound - cd.min;
    if (span <= 0)
        return 0;
    return (span + cd.step - 1) / cd.step;
}

int64_t
Codegen::runsPerIter(NodeId leaf, NodeId ancestor) const
{
    int64_t runs = 1;
    NodeId n = prog_.nodes[leaf].parent;
    for (; n != kNone && n != ancestor; n = prog_.nodes[n].parent) {
        const Node &node = prog_.nodes[n];
        for (CtrId c : node.ctrs) {
            int64_t t = ctrTrips(c);
            if (t < 0)
                return -1; // dynamic trip count
            runs *= std::max<int64_t>(t, 1);
        }
    }
    if (n != ancestor)
        return -1; // not an ancestor
    return runs;
}

void
Codegen::memsTouched(NodeId id, std::set<MemId> &reads,
                     std::set<MemId> &writes) const
{
    const Node &n = prog_.nodes[id];
    switch (n.kind) {
      case NodeKind::kOuter:
        for (NodeId c : n.children)
            memsTouched(c, reads, writes);
        return;
      case NodeKind::kTransfer:
        if (n.xfer.sparse) {
            reads.insert(n.xfer.dram);
            reads.insert(n.xfer.addrMem);
            writes.insert(n.xfer.sram);
        } else if (n.xfer.load) {
            reads.insert(n.xfer.dram);
            writes.insert(n.xfer.sram);
        } else {
            reads.insert(n.xfer.sram);
            writes.insert(n.xfer.dram);
        }
        return;
      case NodeKind::kCompute: {
        // Loads via expressions; DRAM streams count as reads.
        std::function<void(ExprId)> scan = [&](ExprId e) {
            if (e == kNone)
                return;
            const Expr &ex = prog_.exprs[e];
            if (ex.kind == ExprKind::kLoadSram) {
                reads.insert(ex.mem);
                scan(ex.addr);
            } else if (ex.kind == ExprKind::kStreamIn) {
                reads.insert(n.streamIns[ex.stream].dram);
                scan(n.streamIns[ex.stream].addr);
            } else if (ex.kind == ExprKind::kAlu) {
                scan(ex.a);
                scan(ex.b);
                scan(ex.c);
            }
        };
        for (const Sink &s : n.sinks) {
            scan(s.value);
            scan(s.pred);
            scan(s.scatterPred);
            if (s.kind == SinkKind::kStoreSram ||
                (s.kind == SinkKind::kFold &&
                 s.dest == FoldDest::kSramAddr))
                writes.insert(s.mem);
            if (s.kind == SinkKind::kFlatMapSram)
                writes.insert(s.mem);
            if (s.kind == SinkKind::kStreamOut ||
                s.kind == SinkKind::kScatterOut) {
                writes.insert(s.dram);
                scan(s.dramAddr);
            }
            // Address expressions may read memories (gather keys).
            scan(s.addr);
        }
        return;
      }
    }
}

ControlCfg &
Codegen::ctrlOf(const CtrlHandle &h)
{
    switch (h.unit.cls) {
      case UnitClass::kPcu:
        return fab_.pcus[h.unit.index].ctrl;
      case UnitClass::kAg:
        return fab_.ags[h.unit.index].ctrl;
      case UnitClass::kBox:
        return fab_.boxes[h.unit.index].ctrl;
      case UnitClass::kPmu:
        switch (h.sel) {
          case CtrlSel::kPmuWrite:
            return fab_.pmus[h.unit.index].write.ctrl;
          case CtrlSel::kPmuWrite2:
            return fab_.pmus[h.unit.index].write2.ctrl;
          case CtrlSel::kPmuRead:
            return fab_.pmus[h.unit.index].read.ctrl;
          default:
            break;
        }
        panic("bad PMU ctrl selector");
      default:
        panic("ctrlOf: bad unit class");
    }
}

void
Codegen::connect(NetKind kind, UnitRef src, uint32_t sp, UnitRef dst,
                 uint32_t dp, uint32_t capacity, uint32_t initialTokens)
{
    ChannelCfg ch;
    ch.kind = kind;
    ch.src = {src, static_cast<uint8_t>(sp)};
    ch.dst = {dst, static_cast<uint8_t>(dp)};
    ch.capacity = capacity;
    ch.initialTokens = initialTokens;
    ch.latency = 2; // refined by routing
    fab_.channels.push_back(ch);
}

std::pair<uint8_t, uint8_t>
Codegen::controlEdge(const UnitRef &from, const UnitRef &to)
{
    auto op = static_cast<uint8_t>(portsOf(from).co++);
    auto ip = static_cast<uint8_t>(portsOf(to).ci++);
    connect(NetKind::kControl, from, op, to, ip, 32);
    return {op, ip};
}

void
Codegen::tokenEdge(const CtrlHandle &from, const CtrlHandle &to)
{
    auto [op, ip] = controlEdge(from.unit, to.unit);
    ctrlOf(from).doneOuts.push_back(op);
    ctrlOf(to).tokenIns.push_back(ip);
}

uint32_t
Codegen::scalarForCtr(const UnitRef &unit, CtrId c)
{
    uint32_t port = portsOf(unit).si++;
    scalarReqs_.push_back({unit, static_cast<uint8_t>(port), true, c, kNone,
                           kNone, curConsumer_});
    return port;
}

uint32_t
Codegen::scalarForSink(const UnitRef &unit, NodeId node, int32_t sink)
{
    uint32_t port = portsOf(unit).si++;
    scalarReqs_.push_back({unit, static_cast<uint8_t>(port), false, kNone,
                           node, sink, curConsumer_});
    return port;
}

ChainCfg
Codegen::buildChain(const std::vector<CtrId> &ctrs, const UnitRef &unit,
                    bool devectorize)
{
    ChainCfg cfg;
    for (CtrId cid : ctrs) {
        const CtrDecl &cd = prog_.ctrs[cid];
        CounterCfg cc;
        cc.min = cd.min;
        cc.step = cd.step;
        cc.vectorized = cd.vectorized && !devectorize;
        if (cd.vectorized && devectorize)
            cc.step = cd.step * P_.pcu.lanes;
        if (cd.boundArg != kNone) {
            cc.max = wordToInt(prog_.args[cd.boundArg].value);
        } else if (cd.boundSinkNode != kNone) {
            cc.maxFromScalarIn = static_cast<int8_t>(scalarForSink(
                unit, cd.boundSinkNode, cd.boundSinkIdx));
            cc.boundScale = cd.boundScale;
        } else {
            cc.max = cd.max;
        }
        cfg.ctrs.push_back(cc);
    }
    return cfg;
}

std::vector<StageCfg>
Codegen::addrStages(ExprId expr, const std::vector<CtrId> &chainCtrs,
                    const UnitRef &unit, uint8_t &reg)
{
    std::map<CtrId, int> ctr_level;
    for (size_t i = 0; i < chainCtrs.size(); ++i)
        ctr_level[chainCtrs[i]] = static_cast<int>(i);
    // Outer counters become scalar inputs. Collect them first.
    std::map<CtrId, int> scalar_port;
    std::function<void(ExprId)> collect = [&](ExprId id) {
        if (id == kNone)
            return;
        const Expr &e = prog_.exprs[id];
        if (e.kind == ExprKind::kCtr && !ctr_level.count(e.ctr) &&
            !scalar_port.count(e.ctr)) {
            scalar_port[e.ctr] =
                static_cast<int>(scalarForCtr(unit, e.ctr));
        } else if (e.kind == ExprKind::kAlu) {
            collect(e.a);
            collect(e.b);
            collect(e.c);
        }
    };
    collect(expr);
    std::string err;
    std::vector<StageCfg> stages =
        lowerScalarExpr(prog_, expr, ctr_level, scalar_port, reg, err);
    if (!err.empty())
        fail(err, "pcu.pipeline");
    return stages;
}

// =====================================================================
// PCU construction
// =====================================================================

void
Codegen::createPcus()
{
    for (NodeId l : an_.leaves) {
        curConsumer_ = l;
        const VirtualLeaf &vl = an_.vleaves.at(l);
        const PartitionResult &part = an_.parts.at(l);
        const std::vector<int32_t> last_use = computeLastUse(vl);

        // Emission lookup by defining value.
        std::map<int32_t, std::vector<int>> emits_by_value;
        for (size_t e = 0; e < vl.emissions.size(); ++e) {
            if (vl.emissions[e].value >= 0)
                emits_by_value[vl.emissions[e].value].push_back(
                    static_cast<int>(e));
        }

        // (value -> producing chunk's out port) for forwarding.
        std::map<int32_t, std::pair<int, int>> fwd_src;

        for (size_t c = 0; c < part.chunks.size(); ++c) {
            const Chunk &ch = part.chunks[c];
            int pcu_idx = static_cast<int>(fab_.pcus.size());
            fab_.pcus.emplace_back();
            const UnitRef ref = newPorts(UnitClass::kPcu);
            PcuCfg &cfg = fab_.pcus.back();
            PortAlloc &pa = portsOf(ref);
            cfg.used = true;
            cfg.name = strfmt("%s#%zu", vl.name.c_str(), c);

            // Chain (every chunk mirrors the leaf chain).
            cfg.chain = vl.chain;
            for (size_t lvl = 0; lvl < vl.dynBoundScalar.size(); ++lvl) {
                if (vl.dynBoundScalar[lvl] < 0)
                    continue;
                const ScalSource &ss =
                    vl.scalSources[vl.dynBoundScalar[lvl]];
                const CtrDecl &cd = prog_.ctrs[ss.ctr];
                cfg.chain.ctrs[lvl].maxFromScalarIn =
                    static_cast<int8_t>(scalarForSink(
                        ref, cd.boundSinkNode, cd.boundSinkIdx));
                cfg.chain.ctrs[lvl].boundScale = cd.boundScale;
            }

            // Scalar and vector input port maps for this chunk.
            std::map<int, int> scal_port;  // scalSource -> port
            std::map<int, int> vsrc_port;  // vecSource -> port
            std::map<int, int> fwd_port;   // value -> port
            auto scalPortFor = [&](int src_idx) {
                auto it = scal_port.find(src_idx);
                if (it != scal_port.end())
                    return it->second;
                const ScalSource &ss = vl.scalSources[src_idx];
                int port;
                if (ss.kind == ScalSource::Kind::kOuterCtr)
                    port = static_cast<int>(scalarForCtr(ref, ss.ctr));
                else if (ss.kind == ScalSource::Kind::kLeafScalar) {
                    const ScalarIn &si =
                        prog_.nodes[l].scalarIns[ss.scalarIn];
                    port = static_cast<int>(
                        scalarForSink(ref, si.fromNode, si.fromSink));
                } else {
                    const CtrDecl &cd = prog_.ctrs[ss.ctr];
                    port = static_cast<int>(scalarForSink(
                        ref, cd.boundSinkNode, cd.boundSinkIdx));
                }
                scal_port[src_idx] = port;
                return port;
            };
            auto vecPortFor = [&](int vsrc_idx) {
                auto it = vsrc_port.find(vsrc_idx);
                if (it != vsrc_port.end())
                    return it->second;
                int port = static_cast<int>(pa.vi++);
                vsrc_port[vsrc_idx] = port;
                vecSrcPorts_[{l, vsrc_idx}].push_back({pcu_idx, port});
                return port;
            };
            auto fwdPortFor = [&](int32_t value) {
                auto it = fwd_port.find(value);
                if (it != fwd_port.end())
                    return it->second;
                int port = static_cast<int>(pa.vi++);
                fwd_port[value] = port;
                auto src = fwd_src.find(value);
                panic_if(src == fwd_src.end(),
                         "forwarded value has no source");
                connect(NetKind::kVector, pcuAt(src->second.first),
                        src->second.second, ref, port, P_.pcu.fifoDepth);
                return port;
            };

            // Register allocation (linear scan over chunk ops).
            std::map<int32_t, int> reg_of;
            std::vector<int32_t> reg_owner(P_.pcu.regsPerStage + 8, -1);
            auto allocReg = [&](int32_t value, int32_t at_op) {
                // Free registers whose values are dead.
                for (auto &owner : reg_owner) {
                    if (owner < 0)
                        continue;
                    bool needed =
                        last_use[owner] >= at_op ||
                        emits_by_value.count(owner) ||
                        (last_use[owner] > ch.lastOp);
                    if (!needed)
                        owner = -1;
                }
                for (size_t r = 0; r < reg_owner.size(); ++r) {
                    if (reg_owner[r] < 0) {
                        reg_owner[r] = value;
                        reg_of[value] = static_cast<int>(r);
                        return static_cast<int>(r);
                    }
                }
                panic("register allocation overflow in %s",
                      cfg.name.c_str());
            };

            auto operand = [&](int32_t value) -> Operand {
                if (value < 0)
                    return Operand::none();
                const VValue &v = vl.values[value];
                switch (v.kind) {
                  case VValue::Kind::kImm:
                    return Operand::immWord(v.imm);
                  case VValue::Kind::kCtr:
                    return Operand::ctr(static_cast<uint8_t>(v.index));
                  case VValue::Kind::kLane:
                    return Operand::laneId();
                  case VValue::Kind::kScalar:
                    return Operand::scalarIn(
                        static_cast<uint8_t>(scalPortFor(v.index)));
                  case VValue::Kind::kVecIn:
                    return Operand::vectorIn(
                        static_cast<uint8_t>(vecPortFor(v.index)));
                  case VValue::Kind::kOp: {
                    if (v.def >= ch.firstOp && v.def <= ch.lastOp)
                        return Operand::reg(
                            static_cast<uint8_t>(reg_of.at(value)));
                    return Operand::vectorIn(
                        static_cast<uint8_t>(fwdPortFor(value)));
                  }
                }
                return Operand::none();
            };

            // Build the stages.
            for (int32_t i = ch.firstOp; i <= ch.lastOp; ++i) {
                const VOp &op = vl.ops[i];
                StageCfg st;
                st.kind = op.kind;
                st.op = op.op;
                st.a = operand(op.a);
                st.b = operand(op.b);
                st.c = operand(op.c);
                st.setsMask = op.setsMask;
                st.reduceDist = op.reduceDist;
                st.accLevel = op.accLevel;
                st.dstReg = static_cast<uint8_t>(
                    allocReg(op.result, static_cast<int32_t>(i)));
                cfg.stages.push_back(st);
            }

            // Vector outputs: forwarded values and emissions.
            cfg.vecOuts.resize(P_.pcu.vectorOuts + 4);
            cfg.scalOuts.resize(P_.pcu.scalarOuts + 4);
            std::map<int32_t, int> vout_of_value;
            for (int32_t i = ch.firstOp; i <= ch.lastOp; ++i) {
                int32_t v = vl.ops[i].result;
                if (v < 0)
                    continue;
                if (last_use[v] > ch.lastOp) {
                    int port = static_cast<int>(pa.vo++);
                    vout_of_value[v] = port;
                    cfg.vecOuts[port].enabled = true;
                    cfg.vecOuts[port].srcReg =
                        static_cast<uint8_t>(reg_of.at(v));
                    cfg.vecOuts[port].cond = EmitCond::everyWavefront();
                    fwd_src[v] = {pcu_idx, port};
                }
                auto em_it = emits_by_value.find(v);
                if (em_it == emits_by_value.end())
                    continue;
                for (int e : em_it->second) {
                    const VEmission &em = vl.emissions[e];
                    if (em.kind == VEmission::Kind::kVecOut) {
                        int port;
                        auto shared = vout_of_value.find(v);
                        bool can_share =
                            shared != vout_of_value.end() &&
                            em.cond.always && !em.coalesce;
                        if (can_share) {
                            port = shared->second;
                        } else {
                            port = static_cast<int>(pa.vo++);
                            cfg.vecOuts[port].enabled = true;
                            cfg.vecOuts[port].srcReg =
                                static_cast<uint8_t>(reg_of.at(v));
                            cfg.vecOuts[port].cond = em.cond;
                            cfg.vecOuts[port].coalesce = em.coalesce;
                        }
                        emitVec_[{l, e}] = {pcu_idx, port};
                    } else if (em.kind == VEmission::Kind::kScalOut) {
                        int port = static_cast<int>(pa.so++);
                        cfg.scalOuts[port].enabled = true;
                        cfg.scalOuts[port].srcReg =
                            static_cast<uint8_t>(reg_of.at(v));
                        cfg.scalOuts[port].cond = em.cond;
                        sinkScalar_[{l, em.sinkIdx}] = {pcu_idx, port};
                    }
                }
            }
            // Count emissions attach to the coalescing port's chunk.
            for (size_t e = 0; e < vl.emissions.size(); ++e) {
                const VEmission &em = vl.emissions[e];
                if (em.kind != VEmission::Kind::kCountOut)
                    continue;
                // Find the coalescing emission of the same sink.
                for (size_t e2 = 0; e2 < vl.emissions.size(); ++e2) {
                    const VEmission &vo = vl.emissions[e2];
                    if (vo.kind != VEmission::Kind::kVecOut ||
                        !vo.coalesce || vo.sinkIdx != em.countOfSink)
                        continue;
                    auto src = emitVec_.find({l, static_cast<int>(e2)});
                    if (src == emitVec_.end() ||
                        src->second.pcu != pcu_idx)
                        continue;
                    int port = static_cast<int>(pa.so++);
                    cfg.scalOuts[port].enabled = true;
                    cfg.scalOuts[port].countOfVecOut =
                        static_cast<int8_t>(src->second.port);
                    sinkScalar_[{l, em.sinkIdx}] = {pcu_idx, port};
                }
            }

            if (pa.vi > P_.pcu.vectorIns || pa.vo > P_.pcu.vectorOuts ||
                pa.si > P_.pcu.scalarIns || pa.so > P_.pcu.scalarOuts) {
                fail(strfmt("%s: port overflow (vi=%u vo=%u si=%u so=%u)",
                            cfg.name.c_str(), pa.vi, pa.vo, pa.si,
                            pa.so));
            }

            clusters_[l].triggers.push_back({ref, CtrlSel::kMain});
            // Only effect-bearing units report done (keeps the token
            // fan-in at parent boxes small); the final chunk carries
            // the leaf's scalar/argOut effects.
            if (c + 1 == part.chunks.size()) {
                clusters_[l].dones.push_back({ref, CtrlSel::kMain});
                lastPcu_[l] = {ref, CtrlSel::kMain};
            }
        }
    }
}

// =====================================================================
// PMU construction
// =====================================================================

void
Codegen::createPmus()
{
    for (size_t m = 0; m < prog_.mems.size(); ++m) {
        if (prog_.mems[m].kind != MemKind::kSram)
            continue;
        MemId mid = static_cast<MemId>(m);
        const MemDecl &md = prog_.mems[m];
        std::vector<ReaderDesc> rds = an_.readers[mid];
        const std::vector<WriterDesc> &wrs = an_.writers[mid];
        if (rds.empty() && wrs.empty())
            continue;
        panic_if(wrs.size() > 2, "memory '%s' has %zu writers",
                 md.name.c_str(), wrs.size());
        if (rds.empty()) {
            warn("memory '%s' is written but never read", md.name.c_str());
            rds.push_back({ReaderDesc::Kind::kLeafLoad, kNone, -1});
        }

        // The depth plan spilled what it could; a memory that still
        // does not fit the scratchpad fails here.
        if (mid == plan_.overflow) {
            const unsigned long long nbuf = plan_.nbuf[mid];
            fail(strfmt("memory '%s' needs %llu words (%llu bufs x %u), "
                        "PMU scratchpad holds %llu",
                        md.name.c_str(), nbuf * md.sizeWords, nbuf,
                        static_cast<uint32_t>(md.sizeWords),
                        static_cast<unsigned long long>(
                            scratchpadWords(md, P_.pmu))),
                 "pmu.scratchpad");
            return;
        }

        for (const ReaderDesc &rd : rds) {
            curConsumer_ = rd.node;
            int pmu_idx = static_cast<int>(fab_.pmus.size());
            fab_.pmus.emplace_back();
            const UnitRef ref = newPorts(UnitClass::kPmu);
            PmuCfg &cfg = fab_.pmus.back();
            cfg.used = true;
            cfg.name = strfmt("%s@%d", md.name.c_str(), pmu_idx);

            cfg.scratch.mode = md.mode;
            cfg.scratch.numBufs = static_cast<uint8_t>(plan_.nbuf[mid]);
            cfg.scratch.sizeWords = static_cast<uint32_t>(md.sizeWords);

            // ---- read port ------------------------------------------
            if (rd.node != kNone) {
                PmuPortCfg &rp = cfg.read;
                rp.enabled = true;
                rp.dataVecOut = 0;
                if (plan_.nbuf[mid] > 1) {
                    int64_t se = runsPerIter(rd.node, an_.rotNode[mid]);
                    rp.swapEvery = se < 0 ? 1 : static_cast<uint32_t>(se);
                }
                clusters_[rd.node].triggers.push_back(
                    {ref, CtrlSel::kPmuRead});
                readHandles_[{mid, rd.node}].push_back(
                    {ref, CtrlSel::kPmuRead});
                switch (rd.kind) {
                  case ReaderDesc::Kind::kLeafLoad: {
                    const VirtualLeaf &vl = an_.vleaves.at(rd.node);
                    const VecSource &src = vl.vecSources[rd.vecSource];
                    rp.chain = buildChain(vl.ctrIds, ref);
                    if (src.access == AccessClass::kGather) {
                        rp.addrVecIn =
                            static_cast<int8_t>(portsOf(ref).vi++);
                        auto es = std::find_if(
                            vl.emissions.begin(), vl.emissions.end(),
                            [&](const VEmission &em) {
                                return em.gatherVecSource ==
                                       rd.vecSource;
                            });
                        panic_if(es == vl.emissions.end(),
                                 "gather without address emission");
                        int e_idx = static_cast<int>(
                            es - vl.emissions.begin());
                        EmitSrc esrc = emitVec_.at({rd.node, e_idx});
                        connect(NetKind::kVector, pcuAt(esrc.pcu), esrc.port,
                                ref, static_cast<uint32_t>(rp.addrVecIn),
                                P_.pcu.fifoDepth);
                    } else {
                        rp.vecLinear =
                            src.access == AccessClass::kVecLinear;
                        rp.broadcast =
                            src.access == AccessClass::kBroadcast;
                        rp.addrStages = addrStages(
                            prog_.exprs[src.expr].addr, vl.ctrIds, ref,
                            rp.addrReg);
                    }
                    // Data to every consuming chunk.
                    for (auto [pcu, port] :
                         vecSrcPorts_[{rd.node, rd.vecSource}]) {
                        connect(NetKind::kVector, ref, 0, pcuAt(pcu), port,
                                P_.pcu.fifoDepth);
                    }
                    break;
                  }
                  case ReaderDesc::Kind::kXferStore:
                  case ReaderDesc::Kind::kGatherAddr: {
                    const TransferDesc &x = prog_.nodes[rd.node].xfer;
                    // Linear read over rows x rowWords (store) or the
                    // gather's address list.
                    CounterCfg rows, wordsc;
                    int64_t stride;
                    if (rd.kind == ReaderDesc::Kind::kXferStore) {
                        rows.max = x.rows;
                        wordsc.max = x.rowWords;
                        stride = x.sramRowStride;
                    } else {
                        rows.max = 1;
                        wordsc.max = x.rowWords;
                        stride = 0;
                    }
                    wordsc.vectorized = true;
                    if (rd.kind == ReaderDesc::Kind::kGatherAddr &&
                        x.countSinkNode != kNone) {
                        wordsc.maxFromScalarIn = static_cast<int8_t>(
                            scalarForSink(ref, x.countSinkNode,
                                          x.countSinkIdx));
                        wordsc.boundScale = x.countScale;
                    }
                    rp.chain.ctrs = {rows, wordsc};
                    rp.vecLinear = true;
                    rp.addrStages = {
                        addrStage(FuOp::kIMul, Operand::ctr(0),
                                  Operand::immInt(static_cast<int32_t>(stride)),
                                  0),
                        addrStage(FuOp::kIAdd, Operand::reg(0),
                                  Operand::ctr(1), 1)};
                    rp.addrReg = 1;
                    // Data destination (the AG) is wired in createAgs.
                    xferReadPmu_[rd.node] = pmu_idx;
                    break;
                  }
                }
            }

            // ---- write ports ------------------------------------------
            for (size_t w = 0; w < wrs.size(); ++w) {
                const WriterDesc &wd = wrs[w];
                curConsumer_ = wd.node;
                PmuPortCfg &wp = (w == 0) ? cfg.write : cfg.write2;
                wp.enabled = true;
                uint32_t nbuf = plan_.nbuf[mid];
                int64_t se = nbuf > 1 ? runsPerIter(wd.node,
                                                    an_.rotNode[mid])
                                      : 0;
                // Later-declared writers in a read-before-write cycle
                // start one buffer ahead (frontier ping-pong).
                // Heuristic: second writer keeps buffer 0.
                switch (wd.kind) {
                  case WriterDesc::Kind::kLeafSink: {
                    const VirtualLeaf &vl = an_.vleaves.at(wd.node);
                    const Node &leaf = prog_.nodes[wd.node];
                    const Sink &sk = leaf.sinks[wd.sinkIdx];
                    // Find the value emission for this sink.
                    auto [val_e, addr_e] = sinkEmissions(vl, wd.sinkIdx);
                    panic_if(val_e < 0, "sink emission missing");
                    EmitSrc vsrc = emitVec_.at({wd.node, val_e});
                    wp.dataVecIn = static_cast<int8_t>(portsOf(ref).vi++);
                    uint32_t cap = P_.pcu.fifoDepth;
                    if (sk.kind == SinkKind::kFlatMapSram)
                        cap = static_cast<uint32_t>(
                            md.sizeWords / P_.pcu.lanes + 4);
                    connect(NetKind::kVector, pcuAt(vsrc.pcu), vsrc.port,
                            ref, wp.dataVecIn, cap);

                    if (sk.kind == SinkKind::kFlatMapSram) {
                        // Append-mode: one vectorized counter bounded
                        // by the produced count.
                        CounterCfg cc;
                        cc.vectorized = true;
                        cc.maxFromScalarIn =
                            static_cast<int8_t>(scalarForSink(
                                ref, wd.node, wd.sinkIdx));
                        wp.chain.ctrs = {cc};
                        wp.appendMode = true;
                    } else if (addr_e >= 0) {
                        // Scatter within the scratchpad.
                        EmitSrc asrc = emitVec_.at({wd.node, addr_e});
                        wp.addrVecIn =
                            static_cast<int8_t>(portsOf(ref).vi++);
                        connect(NetKind::kVector, pcuAt(asrc.pcu), asrc.port,
                                ref, wp.addrVecIn, P_.pcu.fifoDepth);
                        wp.chain = buildChain(vl.ctrIds, ref);
                        wp.accumulate = sk.accumulate;
                        wp.accumOp = sk.accumOp;
                    } else if (sk.kind == SinkKind::kFold) {
                        // Chain: counters outside the fold (+ the
                        // vectorized counter for per-lane folds).
                        std::vector<CtrId> wctrs;
                        for (CtrId cid : vl.ctrIds) {
                            if (cid == sk.foldLevel)
                                break;
                            wctrs.push_back(cid);
                        }
                        if (!sk.crossLane)
                            wctrs.push_back(vl.ctrIds.back());
                        wp.chain = buildChain(wctrs, ref);
                        wp.vecLinear = !sk.crossLane;
                        wp.addrStages = addrStages(sk.addr, wctrs, ref,
                                                   wp.addrReg);
                        wp.accumulate = sk.accumulate;
                        wp.accumOp = sk.accumOp;
                    } else {
                        // Plain linear store.
                        wp.chain = buildChain(vl.ctrIds, ref);
                        wp.vecLinear = true;
                        wp.addrStages = addrStages(sk.addr, vl.ctrIds,
                                                   ref, wp.addrReg);
                        wp.accumulate = sk.accumulate;
                        wp.accumOp = sk.accumOp;
                    }
                    if (wp.accumulate) {
                        // Clear at the declared generation boundary.
                        NodeId at = md.clearAt;
                        int64_t ce = at == kNeverClear
                                         ? 0
                                         : at == kNone
                                               ? 1
                                               : runsPerIter(wd.node, at);
                        if (ce < 0) {
                            warn("memory '%s': dynamic generation "
                                 "period, clearing every run",
                                 md.name.c_str());
                            ce = 1;
                        }
                        wp.clearEvery = static_cast<uint32_t>(ce);
                        // 0 = persistent accumulator, never cleared.
                    }
                    break;
                  }
                  case WriterDesc::Kind::kXferLoad: {
                    const TransferDesc &x = prog_.nodes[wd.node].xfer;
                    const LoadBlock lb = loadBlock(x);
                    CounterCfg rows, wordsc;
                    rows.max = x.rows;
                    wordsc.vectorized = true;
                    wp.vecLinear = true;
                    const Operand stride = Operand::immInt(
                        static_cast<int32_t>(x.sramRowStride));
                    if (lb.block < lb.rowWords &&
                        lb.block % P_.pcu.lanes != 0) {
                        // The AG frames each block into its own
                        // vectors (the last one partial), so walk the
                        // row block by block:
                        // addr = row * stride + blk + lane.
                        CounterCfg blk;
                        blk.max = lb.rowWords;
                        blk.step = lb.block;
                        wordsc.max = lb.block;
                        wp.chain.ctrs = {rows, blk, wordsc};
                        wp.addrStages = {
                            addrStage(FuOp::kIMA, Operand::ctr(0), stride, 0,
                                      Operand::ctr(1)),
                            addrStage(FuOp::kIAdd, Operand::reg(0),
                                      Operand::ctr(2), 1)};
                    } else {
                        wordsc.max = lb.rowWords;
                        wp.chain.ctrs = {rows, wordsc};
                        wp.addrStages = {
                            addrStage(FuOp::kIMul, Operand::ctr(0), stride, 0),
                            addrStage(FuOp::kIAdd, Operand::reg(0),
                                      Operand::ctr(1), 1)};
                    }
                    wp.addrReg = 1;
                    wp.dataVecIn =
                        static_cast<int8_t>(portsOf(ref).vi++);
                    // Channel from the AG is wired in createAgs.
                    xferWritePorts_[wd.node].push_back(
                        {pmu_idx, wp.dataVecIn});
                    break;
                  }
                  case WriterDesc::Kind::kGatherDst: {
                    const TransferDesc &x = prog_.nodes[wd.node].xfer;
                    CounterCfg cc;
                    cc.vectorized = true;
                    cc.max = x.rowWords;
                    if (x.countSinkNode != kNone) {
                        cc.maxFromScalarIn = static_cast<int8_t>(
                            scalarForSink(ref, x.countSinkNode,
                                          x.countSinkIdx));
                        cc.boundScale = x.countScale;
                    }
                    wp.chain.ctrs = {cc};
                    wp.vecLinear = true;
                    wp.addrStages = {addrStage(FuOp::kNop, Operand::ctr(0),
                                               Operand::none(), 0)};
                    wp.addrReg = 0;
                    wp.dataVecIn =
                        static_cast<int8_t>(portsOf(ref).vi++);
                    xferWritePorts_[wd.node].push_back(
                        {pmu_idx, wp.dataVecIn});
                    break;
                  }
                }
                if (nbuf > 1)
                    wp.swapEvery =
                        se <= 0 ? 1 : static_cast<uint32_t>(se);

                CtrlSel sel = (w == 0) ? CtrlSel::kPmuWrite
                                       : CtrlSel::kPmuWrite2;
                clusters_[wd.node].triggers.push_back({ref, sel});
                clusters_[wd.node].dones.push_back({ref, sel});
                writeHandles_[{mid, wd.node, rd.node}].push_back(
                    {ref, sel});
                allWriteHandles_[{mid, wd.node}].push_back({ref, sel});
            }

            // Every port's address program runs on the PMU's scalar
            // pipeline (the simulator refuses a longer one).
            for (const PmuPortCfg *p : {&cfg.read, &cfg.write, &cfg.write2}) {
                if (p->enabled && p->addrStages.size() > P_.pmu.stages)
                    fail(strfmt("pmu.stages: PMU '%s': %zu address stages "
                                "exceed the %u physical stages",
                                cfg.name.c_str(), p->addrStages.size(),
                                P_.pmu.stages),
                         "pmu.stages");
            }
        }
    }
}

// =====================================================================
// AG construction
// =====================================================================

Codegen::LoadBlock
Codegen::loadBlock(const TransferDesc &x) const
{
    LoadBlock lb;
    lb.rowWords = x.rowWordsArg != kNone
                      ? wordToInt(prog_.args[x.rowWordsArg].value)
                      : x.rowWords;
    // A command may not exceed the coalescing unit's outstanding-burst
    // budget (at least 1: compileProgram rejects 0). B words at any
    // word offset span at most (B + 14) / 16 + 1 bursts, so blocks of
    // up to 16 * (budget - 1) + 1 words always fit; split long rows
    // into the largest dividing block within that and 256.
    const int64_t burst_words = kBurstBytes / 4;
    const int64_t max_block = std::min<int64_t>(
        256, burst_words * (int64_t{P_.coalescerMaxOutstanding} - 1) + 1);
    lb.block = std::min<int64_t>(lb.rowWords, max_block);
    while (lb.block > 1 && lb.rowWords % lb.block)
        --lb.block;
    return lb;
}

void
Codegen::createAgs()
{
    auto newAg = [&](const std::string &name) -> int {
        int idx = static_cast<int>(fab_.ags.size());
        fab_.ags.emplace_back();
        newPorts(UnitClass::kAg);
        fab_.ags.back().used = true;
        fab_.ags.back().name = name;
        return idx;
    };

    // ---- transfers ---------------------------------------------------
    for (NodeId t : an_.xfers) {
        curConsumer_ = t;
        const TransferDesc &x = prog_.nodes[t].xfer;
        int ag = newAg(prog_.nodes[t].name);
        AgCfg &cfg = fab_.ags[ag];
        UnitRef ref{UnitClass::kAg, static_cast<uint16_t>(ag)};
        cfg.base = an_.dramBase[x.dram];

        if (x.sparse) {
            cfg.mode = AgMode::kSparseLoad;
            CounterCfg cc;
            cc.vectorized = true;
            cc.max = x.rowWords;
            if (x.countSinkNode != kNone) {
                cc.maxFromScalarIn = static_cast<int8_t>(scalarForSink(
                    ref, x.countSinkNode, x.countSinkIdx));
                cc.boundScale = x.countScale;
            }
            cfg.chain.ctrs = {cc};
            cfg.addrVecIn = static_cast<int8_t>(portsOf(ref).vi++);
            cfg.dataVecOut = 0;
            connect(NetKind::kVector, pmuAt(xferReadPmu_.at(t)), 0, ref,
                    cfg.addrVecIn, P_.pcu.fifoDepth);
            for (auto [pmu, port] : xferWritePorts_[t])
                connect(NetKind::kVector, ref, 0, pmuAt(pmu), port,
                        P_.pcu.fifoDepth);
        } else if (x.load) {
            cfg.mode = AgMode::kDenseLoad;
            const LoadBlock lb = loadBlock(x);
            CounterCfg rows, wblk;
            rows.max = x.rows;
            wblk.max = lb.rowWords;
            wblk.step = lb.block;
            cfg.chain.ctrs = {rows, wblk};
            cfg.wordsPerCmd = static_cast<uint32_t>(lb.block);
            // addr = base expr + row * dramRowStride + wblk
            uint8_t base_reg = 0;
            cfg.addrStages =
                addrStages(x.base, {}, ref, base_reg);
            const uint8_t next = static_cast<uint8_t>(cfg.addrStages.size());
            cfg.addrReg = static_cast<uint8_t>(next + 1);
            cfg.addrStages.push_back(addrStage(
                FuOp::kIMA, Operand::ctr(0),
                Operand::immInt(static_cast<int32_t>(x.dramRowStride)), next,
                Operand::ctr(1)));
            cfg.addrStages.push_back(addrStage(FuOp::kIAdd,
                                               Operand::reg(base_reg),
                                               Operand::reg(next),
                                               cfg.addrReg));
            cfg.dataVecOut = 0;
            for (auto [pmu, port] : xferWritePorts_[t])
                connect(NetKind::kVector, ref, 0, pmuAt(pmu), port,
                        P_.pcu.fifoDepth);
        } else {
            cfg.mode = AgMode::kDenseStore;
            CounterCfg rows, words;
            rows.max = x.rows;
            words.max = x.rowWords;
            words.step = P_.pcu.lanes;
            cfg.chain.ctrs = {rows, words};
            uint8_t base_reg = 0;
            cfg.addrStages = addrStages(x.base, {}, ref, base_reg);
            const uint8_t next = static_cast<uint8_t>(cfg.addrStages.size());
            cfg.addrReg = static_cast<uint8_t>(next + 2);
            cfg.addrStages.push_back(addrStage(
                FuOp::kIMul, Operand::ctr(0),
                Operand::immInt(static_cast<int32_t>(x.dramRowStride)), next));
            cfg.addrStages.push_back(
                addrStage(FuOp::kIAdd, Operand::reg(base_reg),
                          Operand::reg(next), static_cast<uint8_t>(next + 1)));
            cfg.addrStages.push_back(
                addrStage(FuOp::kIAdd, Operand::reg(next + 1),
                          Operand::ctr(1), cfg.addrReg));
            cfg.dataVecIn = static_cast<int8_t>(portsOf(ref).vi++);
            connect(NetKind::kVector, pmuAt(xferReadPmu_.at(t)), 0, ref,
                    cfg.dataVecIn, P_.pcu.fifoDepth);
        }
        clusters_[t].triggers.push_back({ref, CtrlSel::kMain});
        if (cfg.mode == AgMode::kDenseStore ||
            cfg.mode == AgMode::kSparseStore) {
            clusters_[t].dones.push_back({ref, CtrlSel::kMain});
            storeAgs_[t].push_back({ref, CtrlSel::kMain});
        }
    }

    // ---- compute-leaf DRAM streams ------------------------------------
    for (NodeId l : an_.leaves) {
        curConsumer_ = l;
        const VirtualLeaf &vl = an_.vleaves.at(l);
        const Node &leaf = prog_.nodes[l];
        for (size_t v = 0; v < vl.vecSources.size(); ++v) {
            const VecSource &src = vl.vecSources[v];
            if (src.kind != VecSource::Kind::kDramStream)
                continue;
            const StreamIn &si =
                leaf.streamIns[prog_.exprs[src.expr].stream];
            int ag = newAg(strfmt("%s.str%zu", vl.name.c_str(), v));
            AgCfg &cfg = fab_.ags[ag];
            UnitRef ref{UnitClass::kAg, static_cast<uint16_t>(ag)};
            cfg.mode = AgMode::kDenseLoad;
            cfg.base = an_.dramBase[si.dram];
            cfg.chain = buildChain(vl.ctrIds, ref, /*devectorize=*/true);
            cfg.wordsPerCmd = P_.pcu.lanes;
            cfg.addrStages =
                addrStages(si.addr, vl.ctrIds, ref, cfg.addrReg);
            cfg.dataVecOut = 0;
            for (auto [pcu, port] : vecSrcPorts_[{l, static_cast<int>(v)}])
                connect(NetKind::kVector, ref, 0, pcuAt(pcu), port,
                        P_.pcu.fifoDepth);
            clusters_[l].triggers.push_back({ref, CtrlSel::kMain});
        }

        // ---- DRAM store / scatter sinks ------------------------------
        for (size_t s = 0; s < leaf.sinks.size(); ++s) {
            const Sink &sk = leaf.sinks[s];
            if (sk.kind != SinkKind::kStreamOut &&
                sk.kind != SinkKind::kScatterOut)
                continue;
            auto [val_e, addr_e] =
                sinkEmissions(vl, static_cast<int32_t>(s));
            panic_if(val_e < 0, "stream-out emission missing");
            int ag = newAg(strfmt("%s.out%zu", vl.name.c_str(), s));
            AgCfg &cfg = fab_.ags[ag];
            UnitRef ref{UnitClass::kAg, static_cast<uint16_t>(ag)};
            cfg.base = an_.dramBase[sk.dram];
            cfg.chain = buildChain(vl.ctrIds, ref, /*devectorize=*/true);
            EmitSrc vsrc = emitVec_.at({l, val_e});
            cfg.dataVecIn = static_cast<int8_t>(portsOf(ref).vi++);
            connect(NetKind::kVector, pcuAt(vsrc.pcu), vsrc.port, ref,
                    cfg.dataVecIn, P_.pcu.fifoDepth);
            if (sk.kind == SinkKind::kStreamOut) {
                cfg.mode = AgMode::kDenseStore;
                cfg.addrStages =
                    addrStages(sk.dramAddr, vl.ctrIds, ref, cfg.addrReg);
            } else {
                cfg.mode = AgMode::kSparseStore;
                panic_if(addr_e < 0, "scatter without address stream");
                EmitSrc asrc = emitVec_.at({l, addr_e});
                cfg.addrVecIn = static_cast<int8_t>(portsOf(ref).vi++);
                connect(NetKind::kVector, pcuAt(asrc.pcu), asrc.port, ref,
                        cfg.addrVecIn, P_.pcu.fifoDepth);
            }
            clusters_[l].triggers.push_back({ref, CtrlSel::kMain});
            clusters_[l].dones.push_back({ref, CtrlSel::kMain});
            storeAgs_[l].push_back({ref, CtrlSel::kMain});
        }
    }
}

// =====================================================================
// Control boxes
// =====================================================================

void
Codegen::createBoxes()
{
    for (NodeId o : an_.outers) {
        curConsumer_ = o;
        const Node &n = prog_.nodes[o];
        int idx = static_cast<int>(fab_.boxes.size());
        fab_.boxes.emplace_back();
        const UnitRef ref = newPorts(UnitClass::kBox);
        ControlBoxCfg &cfg = fab_.boxes.back();
        cfg.used = true;
        cfg.name = n.name;
        cfg.scheme = n.scheme;
        cfg.chain = buildChain(n.ctrs, ref);
        cfg.depth =
            n.scheme == CtrlScheme::kMetapipe ? plan_.metapipeDepth(prog_, o)
                                             : 1;
        boxOf_[o] = idx;
        clusters_[o].triggers.push_back({ref, CtrlSel::kMain});
        clusters_[o].dones.push_back({ref, CtrlSel::kMain});
    }
    fab_.rootBox = boxOf_.at(prog_.root);
}

// =====================================================================
// Scalar wiring (counter exports, cross-leaf scalars, argOuts)
// =====================================================================

void
Codegen::wireScalars()
{
    fab_.hostArgOuts = prog_.numArgOuts;

    for (const ScalarReq &req : scalarReqs_) {
        if (req.isCtr) {
            auto own = an_.ctrOwner.find(req.ctr);
            if (own == an_.ctrOwner.end()) {
                fail(strfmt("counter '%s' referenced but not owned by "
                            "any controller",
                            prog_.ctrs[req.ctr].name.c_str()));
                return;
            }
            int box = boxOf_.at(own->second);
            const UnitRef bref{UnitClass::kBox, static_cast<uint16_t>(box)};
            auto ex = exports_.find(req.ctr);
            int port;
            if (ex == exports_.end()) {
                port = static_cast<int>(portsOf(bref).so++);
                // Find the counter's level in the owner's chain.
                const Node &on = prog_.nodes[own->second];
                int lvl = -1;
                for (size_t i = 0; i < on.ctrs.size(); ++i) {
                    if (on.ctrs[i] == req.ctr)
                        lvl = static_cast<int>(i);
                }
                panic_if(lvl < 0, "export level lookup failed");
                fab_.boxes[box].exports.push_back(
                    {static_cast<uint8_t>(lvl),
                     static_cast<uint8_t>(port)});
                exports_[req.ctr] = {box, port};
            } else {
                port = ex->second.second;
            }
            connect(NetKind::kScalar, bref, static_cast<uint32_t>(port),
                    req.unit, req.port, 32);
            // The consumer may run several times per exported value.
            int64_t pe = req.consumer != kNone
                             ? runsPerIter(req.consumer, own->second)
                             : 1;
            fab_.channels.back().dstPopEvery =
                pe > 0 ? static_cast<uint32_t>(pe) : 1;
        } else {
            auto src = sinkScalar_.find({req.sinkNode, req.sinkIdx});
            if (src == sinkScalar_.end()) {
                fail(strfmt("scalar stream source (node %d, sink %d) "
                            "not found",
                            req.sinkNode, req.sinkIdx));
                return;
            }
            connect(NetKind::kScalar, pcuAt(src->second.pcu),
                    src->second.port, req.unit, req.port, 32);
        }
    }

    // Host argOut channels.
    for (NodeId l : an_.leaves) {
        const Node &leaf = prog_.nodes[l];
        for (size_t s = 0; s < leaf.sinks.size(); ++s) {
            const Sink &sk = leaf.sinks[s];
            int slot = -1;
            if (sk.kind == SinkKind::kFold &&
                sk.dest == FoldDest::kArgOut)
                slot = sk.argOut;
            else if (sk.kind == SinkKind::kFlatMapSram &&
                     sk.countArgOut != kNone)
                slot = sk.countArgOut;
            if (slot < 0)
                continue;
            auto src = sinkScalar_.find({l, static_cast<int32_t>(s)});
            if (src == sinkScalar_.end()) {
                fail(strfmt("argOut source missing for %s sink %zu",
                            leaf.name.c_str(), s));
                return;
            }
            connect(NetKind::kScalar, pcuAt(src->second.pcu),
                    src->second.port, {UnitClass::kHost, 0},
                    static_cast<uint32_t>(slot), 64);
        }
    }
}

// =====================================================================
// Control wiring (tokens; §3.5)
// =====================================================================

void
Codegen::wireControl()
{
    for (NodeId o : an_.outers) {
        const Node &n = prog_.nodes[o];
        int box = boxOf_.at(o);
        UnitRef bref{UnitClass::kBox, static_cast<uint16_t>(box)};
        const size_t k = n.children.size();

        // Data-dependence edges between children (program order).
        std::vector<std::set<MemId>> reads(k), writes(k);
        for (size_t i = 0; i < k; ++i)
            memsTouched(n.children[i], reads[i], writes[i]);
        std::vector<std::vector<size_t>> succ(k);
        std::vector<bool> has_pred(k, false), has_succ(k, false);
        if (n.scheme != CtrlScheme::kStream) {
            for (size_t i = 0; i < k; ++i) {
                for (size_t j = i + 1; j < k; ++j) {
                    bool dep = false;
                    for (MemId m : writes[i]) {
                        if (reads[j].count(m) || writes[j].count(m))
                            dep = true;
                    }
                    for (MemId m : reads[i]) {
                        if (writes[j].count(m))
                            dep = true;
                    }
                    if (dep) {
                        succ[i].push_back(j);
                        has_pred[j] = true;
                        has_succ[i] = true;
                    }
                }
            }
        }

        for (size_t i = 0; i < k; ++i) {
            const Cluster &cl = clusters_[n.children[i]];
            // Heads get start tokens from the box.
            if (!has_pred[i]) {
                for (const CtrlHandle &t : cl.triggers) {
                    auto [op, ip] = controlEdge(bref, t.unit);
                    fab_.boxes[box].childStartOuts.push_back(op);
                    ctrlOf(t).tokenIns.push_back(ip);
                }
            }
            // Edges to dependent siblings: tokens come from the
            // precise effect units of the shared data.
            for (size_t j : succ[i]) {
                const Cluster &cj = clusters_[n.children[j]];
                std::vector<CtrlHandle> dones;
                NodeId ci = n.children[i], cjn = n.children[j];
                if (prog_.nodes[ci].kind == NodeKind::kOuter) {
                    dones = cl.dones; // the box, once per iteration
                } else {
                    auto inSubtree = [&](NodeId x, NodeId top) {
                        for (NodeId a = x; a != kNone;
                             a = prog_.nodes[a].parent) {
                            if (a == top)
                                return true;
                        }
                        return false;
                    };
                    // RAW: writes(i) read inside subtree(j).
                    for (MemId m : writes[i]) {
                        if (!reads[j].count(m) && !writes[j].count(m))
                            continue;
                        if (prog_.mems[m].kind == MemKind::kDram) {
                            const auto &hs = storeAgs_[ci];
                            dones.insert(dones.end(), hs.begin(), hs.end());
                            continue;
                        }
                        bool found_reader = false;
                        for (const ReaderDesc &r : an_.readers[m]) {
                            if (r.node == kNone ||
                                !inSubtree(r.node, cjn))
                                continue;
                            auto it = writeHandles_.find(
                                {m, ci, r.node});
                            if (it != writeHandles_.end()) {
                                dones.insert(dones.end(), it->second.begin(),
                                             it->second.end());
                                found_reader = true;
                            }
                        }
                        if (!found_reader) {
                            const auto &hs = allWriteHandles_[{m, ci}];
                            dones.insert(dones.end(), hs.begin(), hs.end());
                        }
                    }
                    // WAR: reads(i) overwritten by subtree(j).
                    for (MemId m : reads[i]) {
                        if (!writes[j].count(m))
                            continue;
                        if (prog_.mems[m].kind == MemKind::kDram) {
                            auto lp = lastPcu_.find(ci);
                            if (lp != lastPcu_.end())
                                dones.push_back(lp->second);
                            continue;
                        }
                        const auto &hs = readHandles_[{m, ci}];
                        dones.insert(dones.end(), hs.begin(), hs.end());
                    }
                    if (dones.empty())
                        dones = cl.dones; // conservative fallback
                    // Deduplicate handles.
                    std::sort(dones.begin(), dones.end());
                    dones.erase(std::unique(dones.begin(), dones.end()),
                                dones.end());
                }
                for (const CtrlHandle &d : dones) {
                    for (const CtrlHandle &t : cj.triggers)
                        tokenEdge(d, t);
                }
            }
            // Tails report done to the box.
            if (!has_succ[i]) {
                for (const CtrlHandle &d : cl.dones) {
                    auto [op, ip] = controlEdge(d.unit, bref);
                    ctrlOf(d).doneOuts.push_back(op);
                    fab_.boxes[box].childDoneIns.push_back(ip);
                }
            }
        }
    }
}

// =====================================================================

Construction
Codegen::run(bool allowSpill)
{
    if (ok_)
        createPcus();
    if (ok_) {
        plan_ = planDepths(prog_, an_, P_.pmu, allowSpill);
        createPmus();
    }
    if (ok_)
        createAgs();
    if (ok_)
        createBoxes();
    if (ok_)
        wireScalars();
    if (ok_)
        wireControl();
    return {std::move(fab_), std::move(plan_.spills), error_, binding_};
}

/** The first field of `params` no compile can index or simulate, as
 *  "field: why"; "" when every field is usable. */
std::string
archDefect(const ArchParams &params)
{
    uint64_t cols = uint64_t{params.gridCols} + 1;
    uint64_t rows = uint64_t{params.gridRows} + 1;
    const DramParams &dram = params.dram;
    if (dram.channels == 0)
        return "dram.channels: 0 channels leave the AGs no DRAM";
    if (cols > 65536 || rows > 65536 || cols * rows > 65536)
        return strfmt("grid: %ux%u units need more than 65536 switches",
                      params.gridCols, params.gridRows);
    if (params.numAgs > 65536)
        return strfmt("numAgs: %u AGs overflow a 16-bit unit index",
                      params.numAgs);
    if (params.pcu.lanes == 0 || params.pcu.lanes > kMaxLanes)
        return strfmt("pcu.lanes: %u lanes, a vector holds 1 to %u",
                      params.pcu.lanes, kMaxLanes);
    if (params.pmu.banks == 0)
        return "pmu.banks: 0 banks hold no scratchpad words";
    if (dram.queueDepth == 0)
        return "dram.queueDepth: a 0-entry command queue admits no request";
    if (dram.rowBytes < kBurstBytes)
        return strfmt("dram.rowBytes: a %u-byte row holds no %u-byte burst",
                      dram.rowBytes, kBurstBytes);
    if (dram.banksPerChannel == 0)
        return "dram.banksPerChannel: 0 banks hold no rows";
    if (params.coalescerCacheLines == 0)
        return "coalescerCacheLines: a 0-line cache merges no burst";
    if (params.coalescerMaxOutstanding == 0)
        return "coalescerMaxOutstanding: a 0-burst budget admits no command";
    return "";
}

} // namespace

MapResult
compileProgram(const Program &prog, const ArchParams &params,
               const UnitMask &mask, const CompileOptions &opts)
{
    ScopedSpan compileSpan("compile");
    MapResult result;
    MappingReport &rep = result.report;

    // Architectures no compile can index or run fail before any
    // analysis divides by or loops over the offending field.
    std::string defect = archDefect(params);
    if (!defect.empty()) {
        rep.error = defect;
        rep.diag.binding = defect.substr(0, defect.find(':'));
        return result;
    }

    Analysis an;
    {
        ScopedSpan span("compile.partition");
        an = analyzeProgram(prog, params);
    }
    {
        // Fast structured rejection: total demand vs capacity, before
        // any codegen or placement work and with every check reported.
        ScopedSpan span("compile.precheck");
        CompileDiagnostics demand = checkDemand(prog, an, params, mask);
        if (!demand.feasible) {
            rep.error = std::find_if(demand.checks.begin(),
                                     demand.checks.end(),
                                     [](const ResourceCheck &c) {
                                         return c.over;
                                     })
                            ->describe();
            rep.diag = std::move(demand);
            return result;
        }
    }
    Construction built;
    {
        ScopedSpan span("compile.codegen");
        built = Codegen(prog, an, params).run(opts.allowSpill);
    }
    if (built.error.empty()) {
        ScopedSpan span("compile.placeroute");
        built.error = placeAndRoute(built.fabric, mask,
                                    opts.maxPlacementAttempts,
                                    result.fabric, rep.diag);
        built.binding = "routing";
    }

    rep.ok = built.error.empty();
    rep.error = built.error;
    rep.diag.feasible = rep.ok;
    rep.diag.binding = rep.ok ? "" : built.binding;
    rep.diag.spills = std::move(built.spills);
    const FabricConfig &units = built.fabric;
    rep.pcusUsed = static_cast<uint32_t>(units.pcus.size());
    rep.pmusUsed = static_cast<uint32_t>(units.pmus.size());
    rep.agsUsed = static_cast<uint32_t>(units.ags.size());
    rep.boxesUsed = static_cast<uint32_t>(units.boxes.size());
    rep.channels = static_cast<uint32_t>(units.channels.size());
    rep.routedHops = rep.diag.routedHops;
    for (const PcuCfg &p : units.pcus) {
        rep.stagesUsed += static_cast<uint32_t>(p.stages.size());
        rep.fuActive +=
            static_cast<uint32_t>(p.stages.size()) * params.pcu.lanes;
    }
    for (NodeId l : an.leaves) {
        auto it = an.parts.find(l);
        if (it == an.parts.end())
            break; // a failed lowering counts only the leaves before it
        for (const auto &ch : it->second.chunks)
            rep.regsUsed += ch.metrics.regs;
    }
    for (const PmuCfg &p : units.pmus)
        rep.sramWordsUsed +=
            static_cast<uint64_t>(p.scratch.numBufs) * p.scratch.sizeWords;
    result.dramBase = std::move(an.dramBase);
    return result;
}

std::string
MappingReport::summary(const ArchParams &params) const
{
    return strfmt(
        "map: %u/%u PCUs (%.1f%%), %u/%u PMUs (%.1f%%), %u/%u AGs "
        "(%.1f%%), %u boxes, %u channels, %llu hops",
        pcusUsed, params.numPcus(),
        100.0 * pcusUsed / params.numPcus(), pmusUsed, params.numPmus(),
        100.0 * pmusUsed / params.numPmus(), agsUsed, params.numAgs,
        100.0 * agsUsed / params.numAgs, boxesUsed, channels,
        static_cast<unsigned long long>(routedHops));
}

} // namespace plast::compiler

#include "compiler/mapper.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "arch/geometry.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "base/rng.hpp"
#include "compiler/router.hpp"
#include "compiler/vleaf.hpp"

namespace plast::compiler
{

using namespace pir;

namespace
{

/** Rip-up-and-reroute rounds of the first placement attempt; each
 *  later attempt gets 8 more (cost backoff). */
constexpr uint32_t kRouteRounds = 24;

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

/** One capacity-spill request: shrink a memory's N-buffer depth (and
 *  the metapipe depths that drive it) so the buffers fit on-chip. */
struct SpillReq
{
    uint32_t fromBufs = 0;
    uint32_t toBufs = 0;
    std::set<NodeId> nodes; ///< metapipe controllers to throttle
};

class Mapper
{
  public:
    Mapper(const Program &prog, const ArchParams &params,
           const UnitMask &mask, const CompileOptions &opts = {},
           const std::map<NodeId, uint32_t> &depthCaps = {})
        : prog_(prog), P_(params), geom_(params), mask_(mask),
          opts_(opts), depthCaps_(depthCaps)
    {
    }

    MapResult run();

    /** Spill requests recorded by a failed run (empty when the design
     *  is unspillable — the failure is then final). */
    const std::map<MemId, SpillReq> &spillRequests() const
    {
        return spillReqs_;
    }

  private:
    // ---- analysis ----------------------------------------------------
    void analyze();
    /** Total unit, port and scratchpad demand of the analysed program
     *  against the architecture; infeasible when any check is over,
     *  naming the first as the binding resource. */
    CompileDiagnostics checkDemand() const;
    std::vector<NodeId> ancestors(NodeId n) const;
    NodeId lca(NodeId a, NodeId b) const;
    int64_t ctrTrips(CtrId c) const;
    int64_t runsPerIter(NodeId leaf, NodeId ancestor) const;
    void memsTouched(NodeId n, std::set<MemId> &reads,
                     std::set<MemId> &writes) const;

    // ---- construction -------------------------------------------------
    void createPcus();
    void createPmus();
    void createAgs();
    void createBoxes();
    void wireScalars();
    void wireControl();
    bool placeAndRoute(FabricConfig &fab);

    // helpers
    ControlCfg &ctrlOf(const CtrlHandle &h);
    PortAlloc &portsOf(const UnitRef &u);
    void connect(NetKind kind, UnitRef src, uint32_t sp, UnitRef dst,
                 uint32_t dp, uint32_t capacity = 16,
                 uint32_t initialTokens = 0);
    uint32_t allocCtlIn(const UnitRef &u);
    uint32_t allocCtlOut(const UnitRef &u);
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

    void fail(const std::string &msg)
    {
        if (ok_) {
            ok_ = false;
            error_ = msg;
        }
    }

    /** fail() plus the binding-resource tag for the diagnostics. */
    void failBinding(const std::string &resource, const std::string &msg)
    {
        if (ok_ && diag_.binding.empty())
            diag_.binding = resource;
        fail(msg);
    }

    /** Metapipe concurrency of an outer node, after any spill caps. */
    uint32_t metapipeDepth(NodeId o) const
    {
        const Node &n = prog_.nodes[o];
        uint32_t d = n.depthHint
                         ? n.depthHint
                         : static_cast<uint32_t>(n.children.size());
        auto it = depthCaps_.find(o);
        if (it != depthCaps_.end())
            d = std::min(d, it->second);
        return std::max(d, 1u);
    }

    // ---- inputs --------------------------------------------------------
    const Program &prog_;
    ArchParams P_;
    Geometry geom_;
    UnitMask mask_; ///< faulted physical sites placement must avoid
    CompileOptions opts_;
    /** Spill state from earlier rounds: metapipe node -> depth cap. */
    std::map<NodeId, uint32_t> depthCaps_;

    bool ok_ = true;
    std::string error_;
    CompileDiagnostics diag_;
    std::map<MemId, SpillReq> spillReqs_;
    /** Metapipe nodes whose depth drives each memory's N-buffering. */
    std::map<MemId, std::set<NodeId>> nbufContrib_;

    // ---- analysis results -----------------------------------------------
    std::vector<NodeId> leaves_, xfers_, outers_;
    std::map<NodeId, VirtualLeaf> vleaves_;
    std::map<NodeId, PartitionResult> parts_;

    struct ReaderDesc
    {
        enum class Kind { kLeafLoad, kXferStore, kGatherAddr } kind;
        NodeId node;
        int32_t vecSource = -1; ///< kLeafLoad: index into vleaf sources
    };
    struct WriterDesc
    {
        enum class Kind { kLeafSink, kXferLoad, kGatherDst } kind;
        NodeId node;
        int32_t sinkIdx = -1;
    };
    std::map<MemId, std::vector<ReaderDesc>> readers_;
    std::map<MemId, std::vector<WriterDesc>> writers_;
    std::map<MemId, uint32_t> nbuf_;
    std::map<MemId, NodeId> rotNode_;

    // ---- logical units ---------------------------------------------------
    std::vector<PcuCfg> pcus_;
    std::vector<PmuCfg> pmus_;
    std::vector<AgCfg> ags_;
    std::vector<ControlBoxCfg> boxes_;
    std::vector<PortAlloc> pcuPorts_, pmuPorts_, agPorts_, boxPorts_;
    std::vector<ChannelCfg> chans_;
    uint32_t hostArgOuts_ = 0;
    int rootBox_ = -1;

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
    std::map<CtrId, NodeId> ctrOwner_;

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

    MappingReport rep_;
    std::vector<Addr> dramBase_;
};

// =====================================================================
// Analysis
// =====================================================================

std::vector<NodeId>
Mapper::ancestors(NodeId n) const
{
    std::vector<NodeId> up;
    for (NodeId a = n; a != kNone; a = prog_.nodes[a].parent)
        up.push_back(a);
    return up;
}

NodeId
Mapper::lca(NodeId a, NodeId b) const
{
    std::vector<NodeId> ua = ancestors(a);
    std::set<NodeId> sa(ua.begin(), ua.end());
    for (NodeId x = b; x != kNone; x = prog_.nodes[x].parent) {
        if (sa.count(x))
            return x;
    }
    return prog_.root;
}

int64_t
Mapper::ctrTrips(CtrId c) const
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
Mapper::runsPerIter(NodeId leaf, NodeId ancestor) const
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
Mapper::memsTouched(NodeId id, std::set<MemId> &reads,
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

void
Mapper::analyze()
{
    // DRAM base offsets (64 B aligned).
    dramBase_.assign(prog_.mems.size(), 0);
    Addr cursor = 0;
    for (size_t m = 0; m < prog_.mems.size(); ++m) {
        if (prog_.mems[m].kind != MemKind::kDram)
            continue;
        dramBase_[m] = cursor;
        cursor += ((prog_.mems[m].sizeWords * 4 + kBurstBytes - 1) /
                   kBurstBytes) *
                  kBurstBytes;
        // Guard band: stream AGs may over-read the final burst.
        cursor += kBurstBytes;
    }

    // Node lists + counter owners.
    std::function<void(NodeId)> walk = [&](NodeId id) {
        const Node &n = prog_.nodes[id];
        switch (n.kind) {
          case NodeKind::kOuter:
            outers_.push_back(id);
            for (CtrId c : n.ctrs)
                ctrOwner_[c] = id;
            for (NodeId c : n.children)
                walk(c);
            return;
          case NodeKind::kCompute:
            leaves_.push_back(id);
            return;
          case NodeKind::kTransfer:
            xfers_.push_back(id);
            return;
        }
    };
    walk(prog_.root);

    // Lower + partition every compute leaf. A leaf whose lowering
    // fails is left out of every count; a failed partition stays in
    // parts_ for checkDemand to report.
    for (NodeId l : leaves_) {
        VirtualLeaf vl = lowerLeaf(prog_, l, P_.pcu.lanes);
        if (!vl.error.empty()) {
            failBinding("pcu.pipeline", vl.error);
            continue;
        }
        parts_.emplace(l, partitionLeaf(vl, P_.pcu));
        vleaves_.emplace(l, std::move(vl));
    }

    // Memory readers and writers, in controller-tree order.
    for (NodeId l : leaves_) {
        auto it = vleaves_.find(l);
        if (it == vleaves_.end())
            continue;
        const VirtualLeaf &vl = it->second;
        for (size_t v = 0; v < vl.vecSources.size(); ++v) {
            const VecSource &src = vl.vecSources[v];
            if (src.kind == VecSource::Kind::kDramStream)
                continue;
            MemId m = prog_.exprs[src.expr].mem;
            readers_[m].push_back({ReaderDesc::Kind::kLeafLoad, l,
                                   static_cast<int32_t>(v)});
        }
        const Node &n = prog_.nodes[l];
        for (size_t s = 0; s < n.sinks.size(); ++s) {
            const Sink &sk = n.sinks[s];
            bool sram_write =
                sk.kind == SinkKind::kStoreSram ||
                sk.kind == SinkKind::kFlatMapSram ||
                (sk.kind == SinkKind::kFold &&
                 sk.dest == FoldDest::kSramAddr);
            if (sram_write) {
                writers_[sk.mem].push_back({WriterDesc::Kind::kLeafSink,
                                            l, static_cast<int32_t>(s)});
            }
        }
    }
    for (NodeId t : xfers_) {
        const TransferDesc &x = prog_.nodes[t].xfer;
        if (x.sparse) {
            readers_[x.addrMem].push_back(
                {ReaderDesc::Kind::kGatherAddr, t, -1});
            writers_[x.sram].push_back(
                {WriterDesc::Kind::kGatherDst, t, -1});
        } else if (x.load) {
            writers_[x.sram].push_back(
                {WriterDesc::Kind::kXferLoad, t, -1});
        } else {
            readers_[x.sram].push_back(
                {ReaderDesc::Kind::kXferStore, t, -1});
        }
    }

    // N-buffering and rotation level per SRAM memory.
    for (size_t m = 0; m < prog_.mems.size(); ++m) {
        if (prog_.mems[m].kind != MemKind::kSram)
            continue;
        MemId mid = static_cast<MemId>(m);
        uint32_t nbuf = prog_.mems[m].nbufMin;
        NodeId rot = kNone;
        for (const WriterDesc &w : writers_[mid]) {
            for (const ReaderDesc &r : readers_[mid]) {
                NodeId l = lca(w.node, r.node);
                if (rot == kNone ||
                    ancestors(rot).size() > ancestors(l).size())
                    rot = l;
                const Node &ln = prog_.nodes[l];
                if (ln.kind == NodeKind::kOuter &&
                    ln.scheme == CtrlScheme::kMetapipe) {
                    nbuf = std::max(nbuf, metapipeDepth(l));
                    nbufContrib_[mid].insert(l);
                }
            }
        }
        if (rot == kNone)
            rot = prog_.root;
        nbuf_[mid] = std::max<uint32_t>(nbuf, 1);
        rotNode_[mid] = rot;
    }
}

CompileDiagnostics
Mapper::checkDemand() const
{
    // The counts mirror unit construction: one PCU per partition
    // chunk, one PMU per (memory, reader), one AG per transfer, DRAM
    // stream and stream-out sink, one control box per outer controller.
    CompileDiagnostics diag;
    auto pushCheck = [&](const char *res, uint64_t demand,
                         uint64_t capacity, const std::string &detail) {
        ResourceCheck c;
        c.resource = res;
        c.demand = demand;
        c.capacity = capacity;
        c.over = demand > capacity;
        c.detail = detail;
        diag.checks.push_back(c);
    };

    uint64_t pcuDemand = 0, agDemand = xfers_.size();
    uint32_t maxVi = 0, maxVo = 0, maxSi = 0, maxSo = 0;
    for (NodeId l : leaves_) {
        auto it = vleaves_.find(l);
        if (it == vleaves_.end())
            continue; // lowering failed; analyze() reported it
        const VirtualLeaf &vl = it->second;
        const PartitionResult &pr = parts_.at(l);
        if (pr.ok) {
            pcuDemand += pr.chunks.size();
            for (const Chunk &ch : pr.chunks) {
                maxVi = std::max(maxVi, ch.metrics.vectorIns);
                maxVo = std::max(maxVo, ch.metrics.vectorOuts);
                maxSi = std::max(maxSi, ch.metrics.scalarIns);
                maxSo = std::max(maxSo, ch.metrics.scalarOuts);
            }
        } else {
            ResourceCheck c;
            c.resource = "pcu.pipeline";
            c.over = true;
            c.detail = strfmt("leaf '%s': %s", vl.name.c_str(),
                              pr.error.c_str());
            diag.checks.push_back(c);
        }
        for (const VecSource &src : vl.vecSources)
            if (src.kind == VecSource::Kind::kDramStream)
                ++agDemand;
        for (const Sink &sk : prog_.nodes[l].sinks)
            if (sk.kind == SinkKind::kStreamOut ||
                sk.kind == SinkKind::kScatterOut)
                ++agDemand;
    }

    // SRAM memories some unit reads or writes, in declaration order.
    auto count = [](const auto &byMem, MemId m) -> uint64_t {
        auto it = byMem.find(m);
        return it == byMem.end() ? 0 : it->second.size();
    };
    std::vector<MemId> srams;
    uint64_t pmuDemand = 0;
    for (size_t m = 0; m < prog_.mems.size(); ++m) {
        MemId mid = static_cast<MemId>(m);
        uint64_t rds = count(readers_, mid), wrs = count(writers_, mid);
        if (prog_.mems[m].kind != MemKind::kSram || (rds == 0 && wrs == 0))
            continue;
        srams.push_back(mid);
        if (wrs > 2)
            pushCheck("pmu.writePorts", wrs, 2,
                      strfmt("memory '%s'", prog_.mems[m].name.c_str()));
        pmuDemand += std::max<uint64_t>(rds, 1);
    }

    auto maskedCount = [](const std::vector<uint32_t> &masked,
                          uint32_t capacity) {
        uint32_t n = 0;
        for (uint32_t m : masked)
            n += m < capacity ? 1 : 0;
        return n;
    };
    uint32_t maskedPcus = maskedCount(mask_.pcus, P_.numPcus());
    uint32_t maskedPmus = maskedCount(mask_.pmus, P_.numPmus());
    pushCheck("pcu", pcuDemand, P_.numPcus() - maskedPcus,
              maskedPcus ? strfmt("%u masked as faulted", maskedPcus)
                         : "");
    pushCheck("pmu", pmuDemand, P_.numPmus() - maskedPmus,
              maskedPmus ? strfmt("%u masked as faulted", maskedPmus)
                         : "");
    pushCheck("ag", agDemand, P_.numAgs, "");
    pushCheck("box", outers_.size(),
              static_cast<uint64_t>(P_.switchCols()) * P_.switchRows(),
              "");
    pushCheck("pcu.vectorIns", maxVi, P_.pcu.vectorIns, "");
    pushCheck("pcu.vectorOuts", maxVo, P_.pcu.vectorOuts, "");
    pushCheck("pcu.scalarIns", maxSi, P_.pcu.scalarIns, "");
    pushCheck("pcu.scalarOuts", maxSo, P_.pcu.scalarOuts, "");

    // Scratchpad bytes at the N-buffer floor: capacity spilling can
    // shrink a memory down to nbufMin, so only a memory whose floor
    // exceeds the physical scratchpad is infeasible here.
    uint64_t worstWords = 0;
    std::string worstMem;
    bool scratchOver = false;
    for (MemId mid : srams) {
        const MemDecl &md = prog_.mems[mid];
        uint64_t effective = md.mode == BankingMode::kDup
                                 ? P_.pmu.totalWords() / P_.pmu.banks
                                 : P_.pmu.totalWords();
        uint32_t floorBufs = std::max<uint32_t>(md.nbufMin, 1);
        uint64_t floorWords =
            static_cast<uint64_t>(floorBufs) * md.sizeWords;
        if (floorWords > effective) {
            pushCheck("pmu.scratchpad", floorWords, effective,
                      strfmt("memory '%s' (%u words x %u bufs min)",
                             md.name.c_str(),
                             static_cast<uint32_t>(md.sizeWords),
                             floorBufs));
            scratchOver = true;
        } else if (floorWords > worstWords) {
            worstWords = floorWords;
            worstMem = md.name;
        }
    }
    if (!scratchOver && worstWords > 0)
        pushCheck("pmu.scratchpad", worstWords, P_.pmu.totalWords(),
                  strfmt("largest memory '%s'", worstMem.c_str()));

    for (const ResourceCheck &c : diag.checks) {
        if (c.over && diag.binding.empty())
            diag.binding = c.resource;
    }
    diag.feasible = diag.binding.empty();
    return diag;
}

// =====================================================================
// Shared helpers
// =====================================================================

ControlCfg &
Mapper::ctrlOf(const CtrlHandle &h)
{
    switch (h.unit.cls) {
      case UnitClass::kPcu:
        return pcus_[h.unit.index].ctrl;
      case UnitClass::kAg:
        return ags_[h.unit.index].ctrl;
      case UnitClass::kBox:
        return boxes_[h.unit.index].ctrl;
      case UnitClass::kPmu:
        switch (h.sel) {
          case CtrlSel::kPmuWrite:
            return pmus_[h.unit.index].write.ctrl;
          case CtrlSel::kPmuWrite2:
            return pmus_[h.unit.index].write2.ctrl;
          case CtrlSel::kPmuRead:
            return pmus_[h.unit.index].read.ctrl;
          default:
            break;
        }
        panic("bad PMU ctrl selector");
      default:
        panic("ctrlOf: bad unit class");
    }
}

PortAlloc &
Mapper::portsOf(const UnitRef &u)
{
    switch (u.cls) {
      case UnitClass::kPcu:
        return pcuPorts_[u.index];
      case UnitClass::kPmu:
        return pmuPorts_[u.index];
      case UnitClass::kAg:
        return agPorts_[u.index];
      case UnitClass::kBox:
        return boxPorts_[u.index];
      default:
        panic("portsOf: bad unit class");
    }
}

void
Mapper::connect(NetKind kind, UnitRef src, uint32_t sp, UnitRef dst,
                uint32_t dp, uint32_t capacity, uint32_t initialTokens)
{
    ChannelCfg ch;
    ch.kind = kind;
    ch.src = {src, static_cast<uint8_t>(sp)};
    ch.dst = {dst, static_cast<uint8_t>(dp)};
    ch.capacity = capacity;
    ch.initialTokens = initialTokens;
    ch.latency = 2; // refined by routing
    chans_.push_back(ch);
}

uint32_t
Mapper::allocCtlIn(const UnitRef &u)
{
    return portsOf(u).ci++;
}

uint32_t
Mapper::allocCtlOut(const UnitRef &u)
{
    return portsOf(u).co++;
}

void
Mapper::tokenEdge(const CtrlHandle &from, const CtrlHandle &to)
{
    uint32_t op = allocCtlOut(from.unit);
    uint32_t ip = allocCtlIn(to.unit);
    ctrlOf(from).doneOuts.push_back(static_cast<uint8_t>(op));
    ctrlOf(to).tokenIns.push_back(static_cast<uint8_t>(ip));
    connect(NetKind::kControl, from.unit, op, to.unit, ip, 32);
}

uint32_t
Mapper::scalarForCtr(const UnitRef &unit, CtrId c)
{
    uint32_t port = portsOf(unit).si++;
    ScalarReq req;
    req.unit = unit;
    req.port = static_cast<uint8_t>(port);
    req.isCtr = true;
    req.ctr = c;
    req.consumer = curConsumer_;
    scalarReqs_.push_back(req);
    return port;
}

uint32_t
Mapper::scalarForSink(const UnitRef &unit, NodeId node, int32_t sink)
{
    uint32_t port = portsOf(unit).si++;
    ScalarReq req;
    req.unit = unit;
    req.port = static_cast<uint8_t>(port);
    req.isCtr = false;
    req.sinkNode = node;
    req.sinkIdx = sink;
    req.consumer = curConsumer_;
    scalarReqs_.push_back(req);
    return port;
}

ChainCfg
Mapper::buildChain(const std::vector<CtrId> &ctrs, const UnitRef &unit,
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
Mapper::addrStages(ExprId expr, const std::vector<CtrId> &chainCtrs,
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
        lowerScalarExpr(prog_, expr, ctr_level, scalar_port, reg, &err);
    if (!err.empty())
        failBinding("pcu.pipeline", err);
    return stages;
}

// =====================================================================
// PCU construction
// =====================================================================

void
Mapper::createPcus()
{
    for (NodeId l : leaves_) {
        curConsumer_ = l;
        const VirtualLeaf &vl = vleaves_[l];
        const PartitionResult &part = parts_[l];
        std::vector<int32_t> last_use(vl.values.size(), -1);
        for (size_t i = 0; i < vl.ops.size(); ++i) {
            for (int32_t v :
                 {vl.ops[i].a, vl.ops[i].b, vl.ops[i].c}) {
                if (v >= 0)
                    last_use[v] = static_cast<int32_t>(i);
            }
        }

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
            int pcu_idx = static_cast<int>(pcus_.size());
            pcus_.emplace_back();
            pcuPorts_.emplace_back();
            PcuCfg &cfg = pcus_.back();
            PortAlloc &pa = pcuPorts_.back();
            cfg.used = true;
            cfg.name = strfmt("%s#%zu", vl.name.c_str(), c);
            UnitRef ref{UnitClass::kPcu, static_cast<uint16_t>(pcu_idx)};

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
                connect(NetKind::kVector,
                        {UnitClass::kPcu,
                         static_cast<uint16_t>(src->second.first)},
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
Mapper::createPmus()
{
    for (size_t m = 0; m < prog_.mems.size(); ++m) {
        if (prog_.mems[m].kind != MemKind::kSram)
            continue;
        MemId mid = static_cast<MemId>(m);
        const MemDecl &md = prog_.mems[m];
        std::vector<ReaderDesc> &rds = readers_[mid];
        std::vector<WriterDesc> &wrs = writers_[mid];
        if (rds.empty() && wrs.empty())
            continue;
        panic_if(wrs.size() > 2, "memory '%s' has %zu writers",
                 md.name.c_str(), wrs.size());
        if (rds.empty()) {
            warn("memory '%s' is written but never read", md.name.c_str());
            rds.push_back({ReaderDesc::Kind::kLeafLoad, kNone, -1});
        }

        // Scratchpad capacity: the requested N-buffer depth may not fit
        // the physical PMU (or the 8-bit config field). If a shallower
        // depth would fit, record a spill request so the driver can cap
        // the contributing metapipes and re-partition; otherwise the
        // memory is simply too large and the failure is final.
        uint64_t effective = md.mode == BankingMode::kDup
                                 ? P_.pmu.totalWords() / P_.pmu.banks
                                 : P_.pmu.totalWords();
        uint64_t nbuf = nbuf_[mid];
        if (md.sizeWords > 0 &&
            (nbuf * md.sizeWords > effective || nbuf > 255)) {
            uint64_t maxBufs =
                std::min<uint64_t>(effective / md.sizeWords, 255);
            uint32_t floorBufs = std::max<uint32_t>(md.nbufMin, 1);
            bool spillable = opts_.allowSpill && maxBufs >= floorBufs &&
                             maxBufs < nbuf &&
                             !nbufContrib_[mid].empty();
            if (spillable) {
                SpillReq &req = spillReqs_[mid];
                req.fromBufs = static_cast<uint32_t>(nbuf);
                req.toBufs = static_cast<uint32_t>(maxBufs);
                req.nodes = nbufContrib_[mid];
            }
            failBinding(
                "pmu.scratchpad",
                strfmt("memory '%s' needs %llu words (%llu bufs x %u), "
                       "PMU scratchpad holds %llu",
                       md.name.c_str(),
                       static_cast<unsigned long long>(nbuf *
                                                       md.sizeWords),
                       static_cast<unsigned long long>(nbuf),
                       static_cast<uint32_t>(md.sizeWords),
                       static_cast<unsigned long long>(effective)));
            return;
        }

        for (const ReaderDesc &rd : rds) {
            curConsumer_ = rd.node;
            int pmu_idx = static_cast<int>(pmus_.size());
            pmus_.emplace_back();
            pmuPorts_.emplace_back();
            PmuCfg &cfg = pmus_.back();
            cfg.used = true;
            cfg.name = strfmt("%s@%d", md.name.c_str(), pmu_idx);
            UnitRef ref{UnitClass::kPmu, static_cast<uint16_t>(pmu_idx)};

            cfg.scratch.mode = md.mode;
            cfg.scratch.numBufs = static_cast<uint8_t>(nbuf_[mid]);
            cfg.scratch.sizeWords = static_cast<uint32_t>(md.sizeWords);

            // ---- read port ------------------------------------------
            if (rd.node != kNone) {
                PmuPortCfg &rp = cfg.read;
                rp.enabled = true;
                rp.dataVecOut = 0;
                if (nbuf_[mid] > 1)
                    rp.swapEvery = 1;
                switch (rd.kind) {
                  case ReaderDesc::Kind::kLeafLoad: {
                    const VirtualLeaf &vl = vleaves_[rd.node];
                    const VecSource &src = vl.vecSources[rd.vecSource];
                    rp.chain = buildChain(vl.ctrIds, ref);
                    if (nbuf_[mid] > 1) {
                        int64_t se = runsPerIter(rd.node, rotNode_[mid]);
                        rp.swapEvery = se < 0 ? 1
                                              : static_cast<uint32_t>(se);
                    }
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
                        connect(NetKind::kVector,
                                {UnitClass::kPcu,
                                 static_cast<uint16_t>(esrc.pcu)},
                                esrc.port, ref,
                                static_cast<uint32_t>(rp.addrVecIn),
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
                        connect(NetKind::kVector, ref, 0,
                                {UnitClass::kPcu,
                                 static_cast<uint16_t>(pcu)},
                                port, P_.pcu.fifoDepth);
                    }
                    clusters_[rd.node].triggers.push_back(
                        {ref, CtrlSel::kPmuRead});
                    readHandles_[{mid, rd.node}].push_back(
                        {ref, CtrlSel::kPmuRead});
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
                    StageCfg st;
                    st.op = FuOp::kIMul;
                    st.a = Operand::ctr(0);
                    st.b = Operand::immInt(
                        static_cast<int32_t>(stride));
                    st.dstReg = 0;
                    StageCfg st2;
                    st2.op = FuOp::kIAdd;
                    st2.a = Operand::reg(0);
                    st2.b = Operand::ctr(1);
                    st2.dstReg = 1;
                    rp.addrStages = {st, st2};
                    rp.addrReg = 1;
                    if (nbuf_[mid] > 1) {
                        int64_t se = runsPerIter(rd.node, rotNode_[mid]);
                        rp.swapEvery = se < 0 ? 1
                                              : static_cast<uint32_t>(se);
                    }
                    clusters_[rd.node].triggers.push_back(
                        {ref, CtrlSel::kPmuRead});
                    readHandles_[{mid, rd.node}].push_back(
                        {ref, CtrlSel::kPmuRead});
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
                uint32_t nbuf = nbuf_[mid];
                int64_t se = nbuf > 1 ? runsPerIter(wd.node,
                                                    rotNode_[mid])
                                      : 0;
                // Later-declared writers in a read-before-write cycle
                // start one buffer ahead (frontier ping-pong).
                // Heuristic: second writer keeps buffer 0.
                switch (wd.kind) {
                  case WriterDesc::Kind::kLeafSink: {
                    const VirtualLeaf &vl = vleaves_[wd.node];
                    const Node &leaf = prog_.nodes[wd.node];
                    const Sink &sk = leaf.sinks[wd.sinkIdx];
                    // Find the value emission for this sink.
                    int val_e = -1, addr_e = -1;
                    for (size_t e = 0; e < vl.emissions.size(); ++e) {
                        const VEmission &em = vl.emissions[e];
                        if (em.sinkIdx != wd.sinkIdx ||
                            em.kind != VEmission::Kind::kVecOut)
                            continue;
                        if (em.scatterAddrForSink >= 0)
                            addr_e = static_cast<int>(e);
                        else if (em.gatherVecSource < 0)
                            val_e = static_cast<int>(e);
                    }
                    panic_if(val_e < 0, "sink emission missing");
                    EmitSrc vsrc = emitVec_.at({wd.node, val_e});
                    wp.dataVecIn = static_cast<int8_t>(portsOf(ref).vi++);
                    uint32_t cap = P_.pcu.fifoDepth;
                    if (sk.kind == SinkKind::kFlatMapSram)
                        cap = static_cast<uint32_t>(
                            md.sizeWords / P_.pcu.lanes + 4);
                    connect(NetKind::kVector,
                            {UnitClass::kPcu,
                             static_cast<uint16_t>(vsrc.pcu)},
                            vsrc.port, ref, wp.dataVecIn, cap);

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
                        connect(NetKind::kVector,
                                {UnitClass::kPcu,
                                 static_cast<uint16_t>(asrc.pcu)},
                                asrc.port, ref, wp.addrVecIn,
                                P_.pcu.fifoDepth);
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
                    StageCfg st;
                    st.a = Operand::ctr(0);
                    st.b = Operand::immInt(
                        static_cast<int32_t>(x.sramRowStride));
                    st.dstReg = 0;
                    StageCfg st2;
                    st2.op = FuOp::kIAdd;
                    st2.a = Operand::reg(0);
                    st2.dstReg = 1;
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
                        st.op = FuOp::kIMA;
                        st.c = Operand::ctr(1);
                        st2.b = Operand::ctr(2);
                    } else {
                        wordsc.max = lb.rowWords;
                        wp.chain.ctrs = {rows, wordsc};
                        st.op = FuOp::kIMul;
                        st2.b = Operand::ctr(1);
                    }
                    wp.addrStages = {st, st2};
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
                    StageCfg st;
                    st.op = FuOp::kNop;
                    st.a = Operand::ctr(0);
                    st.dstReg = 0;
                    wp.addrStages = {st};
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
        }
    }
}

// =====================================================================
// AG construction
// =====================================================================

Mapper::LoadBlock
Mapper::loadBlock(const TransferDesc &x) const
{
    LoadBlock lb;
    lb.rowWords = x.rowWordsArg != kNone
                      ? wordToInt(prog_.args[x.rowWordsArg].value)
                      : x.rowWords;
    // A command may not exceed the coalescing unit's outstanding-burst
    // budget. B words at any word offset span at most (B + 14) / 16 + 1
    // bursts, so blocks of up to 16 * (budget - 1) + 1 words always
    // fit; split long rows into the largest dividing block within that
    // and 256.
    const int64_t burst_words = kBurstBytes / 4;
    const int64_t max_block = std::max<int64_t>(
        1, std::min<int64_t>(
               256, burst_words * (int64_t{P_.coalescerMaxOutstanding} - 1) +
                        1));
    lb.block = std::min<int64_t>(lb.rowWords, max_block);
    while (lb.block > 1 && lb.rowWords % lb.block)
        --lb.block;
    return lb;
}

void
Mapper::createAgs()
{
    auto newAg = [&](const std::string &name) -> int {
        int idx = static_cast<int>(ags_.size());
        ags_.emplace_back();
        agPorts_.emplace_back();
        ags_.back().used = true;
        ags_.back().name = name;
        return idx;
    };

    // ---- transfers ---------------------------------------------------
    for (NodeId t : xfers_) {
        curConsumer_ = t;
        const TransferDesc &x = prog_.nodes[t].xfer;
        int ag = newAg(prog_.nodes[t].name);
        AgCfg &cfg = ags_[ag];
        UnitRef ref{UnitClass::kAg, static_cast<uint16_t>(ag)};
        cfg.base = dramBase_[x.dram];

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
            cfg.addrVecIn = static_cast<int8_t>(agPorts_[ag].vi++);
            cfg.dataVecOut = 0;
            int src_pmu = xferReadPmu_.at(t);
            connect(NetKind::kVector,
                    {UnitClass::kPmu, static_cast<uint16_t>(src_pmu)}, 0,
                    ref, cfg.addrVecIn, P_.pcu.fifoDepth);
            for (auto [pmu, port] : xferWritePorts_[t]) {
                connect(NetKind::kVector, ref, 0,
                        {UnitClass::kPmu, static_cast<uint16_t>(pmu)},
                        port, P_.pcu.fifoDepth);
            }
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
            uint8_t next = static_cast<uint8_t>(cfg.addrStages.size());
            StageCfg mul;
            mul.op = FuOp::kIMA;
            mul.a = Operand::ctr(0);
            mul.b = Operand::immInt(
                static_cast<int32_t>(x.dramRowStride));
            mul.c = Operand::ctr(1);
            mul.dstReg = next;
            StageCfg add;
            add.op = FuOp::kIAdd;
            add.a = Operand::reg(base_reg);
            add.b = Operand::reg(next);
            add.dstReg = static_cast<uint8_t>(next + 1);
            cfg.addrStages.push_back(mul);
            cfg.addrStages.push_back(add);
            cfg.addrReg = add.dstReg;
            cfg.dataVecOut = 0;
            for (auto [pmu, port] : xferWritePorts_[t]) {
                connect(NetKind::kVector, ref, 0,
                        {UnitClass::kPmu, static_cast<uint16_t>(pmu)},
                        port, P_.pcu.fifoDepth);
            }
        } else {
            cfg.mode = AgMode::kDenseStore;
            CounterCfg rows, words;
            rows.max = x.rows;
            words.max = x.rowWords;
            words.step = P_.pcu.lanes;
            cfg.chain.ctrs = {rows, words};
            uint8_t base_reg = 0;
            cfg.addrStages = addrStages(x.base, {}, ref, base_reg);
            uint8_t next = static_cast<uint8_t>(cfg.addrStages.size());
            StageCfg mul;
            mul.op = FuOp::kIMul;
            mul.a = Operand::ctr(0);
            mul.b = Operand::immInt(
                static_cast<int32_t>(x.dramRowStride));
            mul.dstReg = next;
            StageCfg add;
            add.op = FuOp::kIAdd;
            add.a = Operand::reg(base_reg);
            add.b = Operand::reg(next);
            add.dstReg = static_cast<uint8_t>(next + 1);
            StageCfg add2;
            add2.op = FuOp::kIAdd;
            add2.a = Operand::reg(add.dstReg);
            add2.b = Operand::ctr(1);
            add2.dstReg = static_cast<uint8_t>(next + 2);
            cfg.addrStages.push_back(mul);
            cfg.addrStages.push_back(add);
            cfg.addrStages.push_back(add2);
            cfg.addrReg = add2.dstReg;
            cfg.dataVecIn = static_cast<int8_t>(agPorts_[ag].vi++);
            int src_pmu = xferReadPmu_.at(t);
            connect(NetKind::kVector,
                    {UnitClass::kPmu, static_cast<uint16_t>(src_pmu)}, 0,
                    ref, cfg.dataVecIn, P_.pcu.fifoDepth);
        }
        clusters_[t].triggers.push_back({ref, CtrlSel::kMain});
        if (cfg.mode == AgMode::kDenseStore ||
            cfg.mode == AgMode::kSparseStore) {
            clusters_[t].dones.push_back({ref, CtrlSel::kMain});
            storeAgs_[t].push_back({ref, CtrlSel::kMain});
        }
    }

    // ---- compute-leaf DRAM streams ------------------------------------
    for (NodeId l : leaves_) {
        curConsumer_ = l;
        const VirtualLeaf &vl = vleaves_[l];
        const Node &leaf = prog_.nodes[l];
        for (size_t v = 0; v < vl.vecSources.size(); ++v) {
            const VecSource &src = vl.vecSources[v];
            if (src.kind != VecSource::Kind::kDramStream)
                continue;
            const StreamIn &si =
                leaf.streamIns[prog_.exprs[src.expr].stream];
            int ag = newAg(strfmt("%s.str%zu", vl.name.c_str(), v));
            AgCfg &cfg = ags_[ag];
            UnitRef ref{UnitClass::kAg, static_cast<uint16_t>(ag)};
            cfg.mode = AgMode::kDenseLoad;
            cfg.base = dramBase_[si.dram];
            cfg.chain = buildChain(vl.ctrIds, ref, /*devectorize=*/true);
            cfg.wordsPerCmd = P_.pcu.lanes;
            cfg.addrStages =
                addrStages(si.addr, vl.ctrIds, ref, cfg.addrReg);
            cfg.dataVecOut = 0;
            for (auto [pcu, port] :
                 vecSrcPorts_[{l, static_cast<int>(v)}]) {
                connect(NetKind::kVector, ref, 0,
                        {UnitClass::kPcu, static_cast<uint16_t>(pcu)},
                        port, P_.pcu.fifoDepth);
            }
            clusters_[l].triggers.push_back({ref, CtrlSel::kMain});
        }

        // ---- DRAM store / scatter sinks ------------------------------
        for (size_t s = 0; s < leaf.sinks.size(); ++s) {
            const Sink &sk = leaf.sinks[s];
            if (sk.kind != SinkKind::kStreamOut &&
                sk.kind != SinkKind::kScatterOut)
                continue;
            int val_e = -1, addr_e = -1;
            for (size_t e = 0; e < vl.emissions.size(); ++e) {
                const VEmission &em = vl.emissions[e];
                if (em.sinkIdx != static_cast<int32_t>(s) ||
                    em.kind != VEmission::Kind::kVecOut)
                    continue;
                if (em.scatterAddrForSink >= 0)
                    addr_e = static_cast<int>(e);
                else
                    val_e = static_cast<int>(e);
            }
            panic_if(val_e < 0, "stream-out emission missing");
            int ag = newAg(strfmt("%s.out%zu", vl.name.c_str(), s));
            AgCfg &cfg = ags_[ag];
            UnitRef ref{UnitClass::kAg, static_cast<uint16_t>(ag)};
            cfg.base = dramBase_[sk.dram];
            cfg.chain = buildChain(vl.ctrIds, ref, /*devectorize=*/true);
            EmitSrc vsrc = emitVec_.at({l, val_e});
            cfg.dataVecIn = static_cast<int8_t>(agPorts_[ag].vi++);
            connect(NetKind::kVector,
                    {UnitClass::kPcu, static_cast<uint16_t>(vsrc.pcu)},
                    vsrc.port, ref, cfg.dataVecIn, P_.pcu.fifoDepth);
            if (sk.kind == SinkKind::kStreamOut) {
                cfg.mode = AgMode::kDenseStore;
                cfg.addrStages =
                    addrStages(sk.dramAddr, vl.ctrIds, ref, cfg.addrReg);
            } else {
                cfg.mode = AgMode::kSparseStore;
                panic_if(addr_e < 0, "scatter without address stream");
                EmitSrc asrc = emitVec_.at({l, addr_e});
                cfg.addrVecIn = static_cast<int8_t>(agPorts_[ag].vi++);
                connect(NetKind::kVector,
                        {UnitClass::kPcu,
                         static_cast<uint16_t>(asrc.pcu)},
                        asrc.port, ref, cfg.addrVecIn, P_.pcu.fifoDepth);
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
Mapper::createBoxes()
{
    for (NodeId o : outers_) {
        curConsumer_ = o;
        const Node &n = prog_.nodes[o];
        int idx = static_cast<int>(boxes_.size());
        boxes_.emplace_back();
        boxPorts_.emplace_back();
        ControlBoxCfg &cfg = boxes_.back();
        cfg.used = true;
        cfg.name = n.name;
        cfg.scheme = n.scheme;
        UnitRef ref{UnitClass::kBox, static_cast<uint16_t>(idx)};
        cfg.chain = buildChain(n.ctrs, ref);
        cfg.depth =
            n.scheme == CtrlScheme::kMetapipe ? metapipeDepth(o) : 1;
        boxOf_[o] = idx;
        clusters_[o].triggers.push_back({ref, CtrlSel::kMain});
        clusters_[o].dones.push_back({ref, CtrlSel::kMain});
    }
    rootBox_ = boxOf_.at(prog_.root);
}

// =====================================================================
// Scalar wiring (counter exports, cross-leaf scalars, argOuts)
// =====================================================================

void
Mapper::wireScalars()
{
    hostArgOuts_ = prog_.numArgOuts;

    for (const ScalarReq &req : scalarReqs_) {
        if (req.isCtr) {
            auto own = ctrOwner_.find(req.ctr);
            if (own == ctrOwner_.end()) {
                fail(strfmt("counter '%s' referenced but not owned by "
                            "any controller",
                            prog_.ctrs[req.ctr].name.c_str()));
                return;
            }
            int box = boxOf_.at(own->second);
            auto ex = exports_.find(req.ctr);
            int port;
            if (ex == exports_.end()) {
                port = static_cast<int>(boxPorts_[box].so++);
                // Find the counter's level in the owner's chain.
                const Node &on = prog_.nodes[own->second];
                int lvl = -1;
                for (size_t i = 0; i < on.ctrs.size(); ++i) {
                    if (on.ctrs[i] == req.ctr)
                        lvl = static_cast<int>(i);
                }
                panic_if(lvl < 0, "export level lookup failed");
                boxes_[box].exports.push_back(
                    {static_cast<uint8_t>(lvl),
                     static_cast<uint8_t>(port)});
                exports_[req.ctr] = {box, port};
            } else {
                port = ex->second.second;
            }
            connect(NetKind::kScalar,
                    {UnitClass::kBox, static_cast<uint16_t>(box)},
                    static_cast<uint32_t>(port), req.unit, req.port, 32);
            // The consumer may run several times per exported value.
            int64_t pe = req.consumer != kNone
                             ? runsPerIter(req.consumer, own->second)
                             : 1;
            chans_.back().dstPopEvery =
                pe > 0 ? static_cast<uint32_t>(pe) : 1;
        } else {
            auto src = sinkScalar_.find({req.sinkNode, req.sinkIdx});
            if (src == sinkScalar_.end()) {
                fail(strfmt("scalar stream source (node %d, sink %d) "
                            "not found",
                            req.sinkNode, req.sinkIdx));
                return;
            }
            connect(NetKind::kScalar,
                    {UnitClass::kPcu,
                     static_cast<uint16_t>(src->second.pcu)},
                    src->second.port, req.unit, req.port, 32);
        }
    }

    // Host argOut channels.
    for (NodeId l : leaves_) {
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
            connect(NetKind::kScalar,
                    {UnitClass::kPcu,
                     static_cast<uint16_t>(src->second.pcu)},
                    src->second.port,
                    {UnitClass::kHost, 0}, static_cast<uint32_t>(slot),
                    64);
        }
    }
}

// =====================================================================
// Control wiring (tokens; §3.5)
// =====================================================================

void
Mapper::wireControl()
{
    for (NodeId o : outers_) {
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
                    uint32_t op = allocCtlOut(bref);
                    uint32_t ip = allocCtlIn(t.unit);
                    boxes_[box].childStartOuts.push_back(
                        static_cast<uint8_t>(op));
                    ctrlOf(t).tokenIns.push_back(
                        static_cast<uint8_t>(ip));
                    connect(NetKind::kControl, bref, op, t.unit, ip, 32);
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
                            for (const CtrlHandle &h : storeAgs_[ci])
                                dones.push_back(h);
                            continue;
                        }
                        bool found_reader = false;
                        for (const ReaderDesc &r : readers_[m]) {
                            if (r.node == kNone ||
                                !inSubtree(r.node, cjn))
                                continue;
                            auto it = writeHandles_.find(
                                {m, ci, r.node});
                            if (it != writeHandles_.end()) {
                                for (const CtrlHandle &h : it->second)
                                    dones.push_back(h);
                                found_reader = true;
                            }
                        }
                        if (!found_reader) {
                            for (const CtrlHandle &h :
                                 allWriteHandles_[{m, ci}])
                                dones.push_back(h);
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
                        for (const CtrlHandle &h :
                             readHandles_[{m, ci}])
                            dones.push_back(h);
                    }
                    if (dones.empty())
                        dones = cl.dones; // conservative fallback
                    // Deduplicate handles.
                    std::sort(dones.begin(), dones.end(),
                              [](const CtrlHandle &a,
                                 const CtrlHandle &b) {
                                  return std::make_tuple(
                                             a.unit.cls, a.unit.index,
                                             a.sel) <
                                         std::make_tuple(b.unit.cls,
                                                         b.unit.index,
                                                         b.sel);
                              });
                    dones.erase(
                        std::unique(
                            dones.begin(), dones.end(),
                            [](const CtrlHandle &a,
                               const CtrlHandle &b) {
                                return a.unit == b.unit &&
                                       a.sel == b.sel;
                            }),
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
                    uint32_t op = allocCtlOut(d.unit);
                    uint32_t ip = allocCtlIn(bref);
                    ctrlOf(d).doneOuts.push_back(
                        static_cast<uint8_t>(op));
                    boxes_[box].childDoneIns.push_back(
                        static_cast<uint8_t>(ip));
                    connect(NetKind::kControl, d.unit, op, bref, ip, 32);
                }
            }
        }
    }
}

// =====================================================================
// Placement and routing
// =====================================================================

bool
Mapper::placeAndRoute(FabricConfig &fab)
{
    // checkDemand() has proven that every unit has a site: the PCUs
    // and PMUs fit the unmasked sites, the AGs their edge slots and
    // the control boxes the switches.
    panic_if(ags_.size() > P_.numAgs, "%zu AGs passed the demand check",
             ags_.size());

    // Adjacency from channels (logical unit pairs).
    auto keyOf = [](const UnitRef &u) {
        return std::make_pair(u.cls, u.index);
    };
    std::map<std::pair<UnitClass, uint16_t>,
             std::vector<std::pair<UnitClass, uint16_t>>>
        adj;
    for (const ChannelCfg &ch : chans_) {
        if (ch.dst.unit.cls == UnitClass::kHost)
            continue;
        adj[keyOf(ch.src.unit)].push_back(keyOf(ch.dst.unit));
        adj[keyOf(ch.dst.unit)].push_back(keyOf(ch.src.unit));
    }

    // Physical assignment maps (logical -> physical index).
    std::vector<int> pcuPhys(pcus_.size(), -1);
    std::vector<int> pmuPhys(pmus_.size(), -1);
    std::vector<int> agPhys(ags_.size(), -1);
    std::vector<int> boxPhys(boxes_.size(), -1);

    // AGs: fixed edge slots in order.
    for (size_t a = 0; a < ags_.size(); ++a) {
        agPhys[a] = static_cast<int>(a);
        ags_[a].channel =
            static_cast<uint8_t>(geom_.agChannel(static_cast<uint32_t>(a)));
    }

    auto placedSwitch =
        [&](const std::pair<UnitClass, uint16_t> &u) -> SwitchCoord {
        switch (u.first) {
          case UnitClass::kPcu:
            if (pcuPhys[u.second] >= 0)
                return geom_.switchOf(UnitClass::kPcu,
                                      pcuPhys[u.second]);
            break;
          case UnitClass::kPmu:
            if (pmuPhys[u.second] >= 0)
                return geom_.switchOf(UnitClass::kPmu,
                                      pmuPhys[u.second]);
            break;
          case UnitClass::kAg:
            return geom_.switchOf(UnitClass::kAg, agPhys[u.second]);
          case UnitClass::kBox:
            if (boxPhys[u.second] >= 0)
                return geom_.switchOf(UnitClass::kBox,
                                      boxPhys[u.second]);
            break;
          default:
            break;
        }
        return {-1, -1};
    };

    // Placement-perturbation state for restart attempts: attempt 0 is
    // noise-free; attempt k adds noise seeded with k to the site cost,
    // growing with k so restarts explore progressively farther from
    // the greedy optimum.
    Rng rng(0);
    uint64_t noiseMag = 0;

    // Site -> switch per class, and each site's distance to the grid
    // centre (central sites win when a unit is unconstrained).
    const SwitchCoord centre{static_cast<int>(P_.gridCols / 2),
                             static_cast<int>(P_.gridRows / 2)};
    auto siteTable = [&](UnitClass cls, uint32_t capacity) {
        std::vector<std::pair<SwitchCoord, uint32_t>> t(capacity);
        for (uint32_t site = 0; site < capacity; ++site) {
            SwitchCoord sc = geom_.switchOf(cls, site);
            t[site] = {sc, Geometry::manhattan(sc, centre)};
        }
        return t;
    };
    const auto pcuSites = siteTable(UnitClass::kPcu, P_.numPcus());
    const auto pmuSites = siteTable(UnitClass::kPmu, P_.numPmus());

    auto greedyPlace = [&](UnitClass cls, size_t count,
                           std::vector<int> &phys) {
        const auto &sites =
            cls == UnitClass::kPcu ? pcuSites : pmuSites;
        const uint32_t capacity = static_cast<uint32_t>(sites.size());
        std::vector<bool> taken(capacity, false);
        // Faulted sites are permanently occupied (degraded re-mapping).
        const std::vector<uint32_t> &masked =
            cls == UnitClass::kPcu ? mask_.pcus : mask_.pmus;
        for (uint32_t m : masked) {
            if (m < capacity)
                taken[m] = true;
        }
        std::vector<SwitchCoord> placedNbs;
        for (size_t u = 0; u < count; ++u) {
            std::pair<UnitClass, uint16_t> key{
                cls, static_cast<uint16_t>(u)};
            placedNbs.clear();
            for (const auto &nb : adj[key]) {
                SwitchCoord nc = placedSwitch(nb);
                if (nc.col >= 0)
                    placedNbs.push_back(nc);
            }
            int best = -1;
            uint64_t best_cost = ~0ull;
            for (uint32_t site = 0; site < capacity; ++site) {
                if (taken[site])
                    continue;
                const auto &[sc, toCentre] = sites[site];
                uint64_t cost = 0;
                for (const SwitchCoord &nc : placedNbs)
                    cost += Geometry::manhattan(sc, nc);
                cost = cost * 64 + toCentre;
                if (noiseMag)
                    cost += rng.nextBounded(noiseMag);
                if (cost < best_cost) {
                    best_cost = cost;
                    best = static_cast<int>(site);
                }
            }
            panic_if(best < 0, "no free site for unit %zu", u);
            phys[u] = best;
            taken[static_cast<size_t>(best)] = true;
        }
    };

    const int W = static_cast<int>(P_.switchCols());
    const int H = static_cast<int>(P_.switchRows());
    RouterGrid grid;
    grid.cols = W;
    grid.rows = H;
    grid.vectorTracks = P_.vectorTracks;
    grid.scalarTracks = P_.scalarTracks;
    grid.controlTracks = P_.controlTracks;

    // Unroutable placements are retried with perturbed placements and
    // a growing round budget.
    const uint32_t attempts = std::max(1u, opts_.maxPlacementAttempts);

    std::vector<RouterNet> nets;
    RouteOutcome outcome;
    std::string lastFail;
    for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
        rng = Rng(attempt);
        noiseMag = static_cast<uint64_t>(attempt) * 96;
        std::fill(pcuPhys.begin(), pcuPhys.end(), -1);
        std::fill(pmuPhys.begin(), pmuPhys.end(), -1);
        std::fill(boxPhys.begin(), boxPhys.end(), -1);

        greedyPlace(UnitClass::kPcu, pcus_.size(), pcuPhys);
        greedyPlace(UnitClass::kPmu, pmus_.size(), pmuPhys);

        // Boxes: nearest free switch to the centroid of their neighbors.
        std::set<int> box_sites;
        for (size_t b = 0; b < boxes_.size(); ++b) {
            std::pair<UnitClass, uint16_t> key{
                UnitClass::kBox, static_cast<uint16_t>(b)};
            int64_t sx = 0, sy = 0, cnt = 0;
            for (const auto &nb : adj[key]) {
                SwitchCoord nc = placedSwitch(nb);
                if (nc.col >= 0) {
                    sx += nc.col;
                    sy += nc.row;
                    ++cnt;
                }
            }
            int cx = cnt ? static_cast<int>(sx / cnt)
                         : static_cast<int>(P_.gridCols / 2);
            int cy = cnt ? static_cast<int>(sy / cnt)
                         : static_cast<int>(P_.gridRows / 2);
            int best = -1;
            int best_d = 1 << 30;
            for (uint32_t r = 0; r < P_.switchRows(); ++r) {
                for (uint32_t c = 0; c < P_.switchCols(); ++c) {
                    int site =
                        static_cast<int>(r * P_.switchCols() + c);
                    if (box_sites.count(site))
                        continue;
                    int d = std::abs(static_cast<int>(c) - cx) +
                            std::abs(static_cast<int>(r) - cy);
                    if (d < best_d) {
                        best_d = d;
                        best = site;
                    }
                }
            }
            panic_if(best < 0, "no free switch for control box %zu", b);
            boxPhys[b] = best;
            box_sites.insert(best);
        }

        // Router nets from the logical channels. Multicast branches
        // from one source port share routed tracks — a switch forks
        // the bus instead of allocating a second track — so nets get a
        // group id per (source unit, port, network kind).
        std::map<std::tuple<UnitClass, uint16_t, uint8_t, int>,
                 uint32_t>
            groupIds;
        nets.clear();
        nets.reserve(chans_.size());
        for (const ChannelCfg &ch : chans_) {
            RouterNet net;
            net.src = placedSwitch(keyOf(ch.src.unit));
            net.dst = ch.dst.unit.cls == UnitClass::kHost
                          ? SwitchCoord{0, 0}
                          : placedSwitch(keyOf(ch.dst.unit));
            net.kind = ch.kind;
            auto gkey = std::make_tuple(ch.src.unit.cls,
                                        ch.src.unit.index, ch.src.port,
                                        static_cast<int>(ch.kind));
            net.group = groupIds
                            .try_emplace(gkey, static_cast<uint32_t>(
                                                   groupIds.size()))
                            .first->second;
            nets.push_back(net);
        }

        RouterOptions ro;
        ro.maxRounds = kRouteRounds + attempt * 8;
        outcome = routeNets(nets, grid, ro);

        RouteAttempt ra;
        ra.placement = attempt;
        ra.rounds = outcome.rounds;
        ra.overusedLinks = outcome.overusedLinks;
        ra.routedHops = outcome.totalHops;
        ra.routed = outcome.routed;
        ra.proof = outcome.proof;
        diag_.attempts.push_back(ra);
        diag_.placementAttempts = attempt + 1;

        if (outcome.routed)
            break;
        if (!outcome.hotspots.empty())
            diag_.hotspots = outcome.hotspots;
        if (!outcome.proof.empty()) {
            lastFail = "routing failed: proven unroutable: " +
                       outcome.proof;
        } else {
            lastFail = strfmt("routing failed: %u links over capacity "
                              "after %u rip-up rounds",
                              outcome.overusedLinks, outcome.rounds);
        }
    }

    if (!outcome.routed) {
        failBinding("routing",
                    attempts == 1
                        ? lastFail
                        : strfmt("%s (%u placement attempts)",
                                 lastFail.c_str(), attempts));
        return false;
    }

    // ---- assemble the fabric config -------------------------------
    fab.params = P_;
    fab.pcus.resize(P_.numPcus());
    fab.pmus.resize(P_.numPmus());
    fab.ags.resize(P_.numAgs);
    fab.boxes.resize(P_.switchCols() * P_.switchRows());
    for (size_t u = 0; u < pcus_.size(); ++u)
        fab.pcus[static_cast<size_t>(pcuPhys[u])] = pcus_[u];
    for (size_t u = 0; u < pmus_.size(); ++u)
        fab.pmus[static_cast<size_t>(pmuPhys[u])] = pmus_[u];
    for (size_t u = 0; u < ags_.size(); ++u)
        fab.ags[static_cast<size_t>(agPhys[u])] = ags_[u];
    for (size_t u = 0; u < boxes_.size(); ++u)
        fab.boxes[static_cast<size_t>(boxPhys[u])] = boxes_[u];
    fab.rootBox = boxPhys[static_cast<size_t>(rootBox_)];
    fab.hostArgOuts = hostArgOuts_;

    auto remap = [&](UnitRef &u) {
        switch (u.cls) {
          case UnitClass::kPcu:
            u.index = static_cast<uint16_t>(pcuPhys[u.index]);
            break;
          case UnitClass::kPmu:
            u.index = static_cast<uint16_t>(pmuPhys[u.index]);
            break;
          case UnitClass::kAg:
            u.index = static_cast<uint16_t>(agPhys[u.index]);
            break;
          case UnitClass::kBox:
            u.index = static_cast<uint16_t>(boxPhys[u.index]);
            break;
          case UnitClass::kHost:
            break;
        }
    };
    for (size_t i = 0; i < chans_.size(); ++i) {
        ChannelCfg &ch = chans_[i];
        remap(ch.src.unit);
        if (ch.dst.unit.cls != UnitClass::kHost)
            remap(ch.dst.unit);
        ch.latency = nets[i].hops + 2;
        rep_.routedHops += nets[i].hops;
    }
    fab.channels = chans_;

    diag_.routeRounds = outcome.rounds;
    diag_.routedHops = outcome.totalHops;
    diag_.vectorTrackUtil = outcome.utilization(NetKind::kVector, grid);
    diag_.scalarTrackUtil = outcome.utilization(NetKind::kScalar, grid);
    diag_.controlTrackUtil =
        outcome.utilization(NetKind::kControl, grid);
    return true;
}

// =====================================================================

MapResult
Mapper::run()
{
    MapResult result;
    {
        ScopedSpan span("compile.partition");
        analyze();
    }
    {
        // Fast structured rejection: total demand vs capacity, before
        // any codegen or placement work and with every check reported.
        ScopedSpan span("compile.precheck");
        CompileDiagnostics demand = checkDemand();
        if (!demand.feasible) {
            for (const ResourceCheck &c : demand.checks) {
                if (c.over) {
                    result.report.error = c.describe();
                    break;
                }
            }
            result.report.diag = std::move(demand);
            return result;
        }
    }
    {
        ScopedSpan span("compile.codegen");
        if (ok_)
            createPcus();
        if (ok_)
            createPmus();
        if (ok_)
            createAgs();
        if (ok_)
            createBoxes();
        if (ok_)
            wireScalars();
        if (ok_)
            wireControl();
    }

    FabricConfig fab;
    if (ok_) {
        ScopedSpan span("compile.placeroute");
        ok_ = placeAndRoute(fab);
    }

    rep_.ok = ok_;
    rep_.error = error_;
    diag_.feasible = ok_;
    if (!ok_ && diag_.binding.empty())
        diag_.binding = "compile";
    rep_.diag = diag_;
    rep_.pcusUsed = static_cast<uint32_t>(pcus_.size());
    rep_.pmusUsed = static_cast<uint32_t>(pmus_.size());
    rep_.agsUsed = static_cast<uint32_t>(ags_.size());
    rep_.boxesUsed = static_cast<uint32_t>(boxes_.size());
    rep_.channels = static_cast<uint32_t>(chans_.size());
    for (const PcuCfg &p : pcus_) {
        rep_.stagesUsed += static_cast<uint32_t>(p.stages.size());
        rep_.fuActive +=
            static_cast<uint32_t>(p.stages.size()) * P_.pcu.lanes;
    }
    for (NodeId l : leaves_) {
        auto it = parts_.find(l);
        if (it == parts_.end())
            break; // a failed lowering counts only the leaves before it
        for (const auto &ch : it->second.chunks)
            rep_.regsUsed += ch.metrics.regs;
    }
    for (const PmuCfg &p : pmus_)
        rep_.sramWordsUsed += static_cast<uint64_t>(
                                  p.scratch.numBufs) *
                              p.scratch.sizeWords;

    result.fabric = std::move(fab);
    result.report = rep_;
    result.dramBase = dramBase_;
    return result;
}

} // namespace

MapResult
compileProgram(const Program &prog, const ArchParams &params,
               const UnitMask &mask, const CompileOptions &opts)
{
    ScopedSpan compileSpan("compile");

    // Architectures no compile can index fail before any analysis
    // divides by the channel count or wraps a 16-bit UnitRef index.
    uint64_t cols = uint64_t{params.gridCols} + 1;
    uint64_t rows = uint64_t{params.gridRows} + 1;
    std::string defect;
    if (params.dram.channels == 0)
        defect = "dram.channels: 0 channels leave the AGs no DRAM";
    else if (cols > 65536 || rows > 65536 || cols * rows > 65536)
        defect = strfmt("grid: %ux%u units need more than 65536 switches",
                        params.gridCols, params.gridRows);
    else if (params.numAgs > 65536)
        defect = strfmt("numAgs: %u AGs overflow a 16-bit unit index",
                        params.numAgs);
    if (!defect.empty()) {
        MapResult bad;
        bad.report.error = defect;
        bad.report.diag.binding = defect.substr(0, defect.find(':'));
        return bad;
    }

    // Capacity-spill loop: when a memory's N-buffer demand exceeds the
    // physical scratchpad, cap the metapipe depths that drive it (the
    // matching throughput throttle) and re-run the partitioner with the
    // caps applied, accumulating until the design fits or nothing
    // shrinks any further.
    constexpr uint32_t kMaxSpillRounds = 8;
    std::map<NodeId, uint32_t> depthCaps;
    std::vector<SpillAction> spills;
    for (uint32_t round = 0;; ++round) {
        Mapper m(prog, params, mask, opts, depthCaps);
        MapResult result = m.run();
        result.report.diag.spills = spills;
        if (result.report.ok || round >= kMaxSpillRounds ||
            m.spillRequests().empty())
            return result;
        bool changed = false;
        for (const auto &[mid, req] : m.spillRequests()) {
            for (NodeId nd : req.nodes) {
                auto it = depthCaps.find(nd);
                uint32_t cur =
                    it == depthCaps.end() ? ~0u : it->second;
                if (req.toBufs >= cur)
                    continue;
                depthCaps[nd] = req.toBufs;
                changed = true;
                SpillAction act;
                act.memory = prog.mems[mid].name;
                act.node = prog.nodes[nd].name;
                act.fromBufs = req.fromBufs;
                act.toBufs = req.toBufs;
                spills.push_back(act);
            }
        }
        if (!changed)
            return result;
    }
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

#include "compiler/analysis.hpp"

#include <algorithm>
#include <functional>

#include "base/logging.hpp"

namespace plast::compiler
{

using namespace pir;

namespace
{

/** Depth of `n` in the controller tree (the root is 1). */
size_t
depthOf(const Program &prog, NodeId n)
{
    size_t d = 0;
    for (NodeId a = n; a != kNone; a = prog.nodes[a].parent)
        ++d;
    return d;
}

NodeId
lca(const Program &prog, NodeId a, NodeId b)
{
    std::set<NodeId> sa;
    for (NodeId x = a; x != kNone; x = prog.nodes[x].parent)
        sa.insert(x);
    for (NodeId x = b; x != kNone; x = prog.nodes[x].parent) {
        if (sa.count(x))
            return x;
    }
    return prog.root;
}

} // namespace

Analysis
analyzeProgram(const Program &prog, const ArchParams &params)
{
    Analysis an;
    // DRAM base offsets (64 B aligned).
    an.dramBase.assign(prog.mems.size(), 0);
    Addr cursor = 0;
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind != MemKind::kDram)
            continue;
        an.dramBase[m] = cursor;
        cursor += ((prog.mems[m].sizeWords * 4 + kBurstBytes - 1) /
                   kBurstBytes) *
                  kBurstBytes;
        // Guard band: stream AGs may over-read the final burst.
        cursor += kBurstBytes;
    }

    // Node lists + counter owners.
    std::function<void(NodeId)> walk = [&](NodeId id) {
        const Node &n = prog.nodes[id];
        switch (n.kind) {
          case NodeKind::kOuter:
            an.outers.push_back(id);
            for (CtrId c : n.ctrs)
                an.ctrOwner[c] = id;
            for (NodeId c : n.children)
                walk(c);
            return;
          case NodeKind::kCompute:
            an.leaves.push_back(id);
            return;
          case NodeKind::kTransfer:
            an.xfers.push_back(id);
            return;
        }
    };
    walk(prog.root);

    // Lower + partition every compute leaf.
    for (NodeId l : an.leaves) {
        VirtualLeaf vl = lowerLeaf(prog, l, params.pcu.lanes);
        if (!vl.error.empty()) {
            if (an.error.empty())
                an.error = vl.error;
            continue;
        }
        an.parts.emplace(l, partitionLeaf(vl, params.pcu));
        an.vleaves.emplace(l, std::move(vl));
    }

    // Memory readers and writers, in controller-tree order.
    an.readers.resize(prog.mems.size());
    an.writers.resize(prog.mems.size());
    for (NodeId l : an.leaves) {
        auto it = an.vleaves.find(l);
        if (it == an.vleaves.end())
            continue;
        const VirtualLeaf &vl = it->second;
        for (size_t v = 0; v < vl.vecSources.size(); ++v) {
            const VecSource &src = vl.vecSources[v];
            if (src.kind == VecSource::Kind::kDramStream)
                continue;
            MemId m = prog.exprs[src.expr].mem;
            an.readers[m].push_back({ReaderDesc::Kind::kLeafLoad, l,
                                     static_cast<int32_t>(v)});
        }
        const Node &n = prog.nodes[l];
        for (size_t s = 0; s < n.sinks.size(); ++s) {
            const Sink &sk = n.sinks[s];
            bool sram_write =
                sk.kind == SinkKind::kStoreSram ||
                sk.kind == SinkKind::kFlatMapSram ||
                (sk.kind == SinkKind::kFold &&
                 sk.dest == FoldDest::kSramAddr);
            if (sram_write) {
                an.writers[sk.mem].push_back(
                    {WriterDesc::Kind::kLeafSink, l,
                     static_cast<int32_t>(s)});
            }
        }
    }
    for (NodeId t : an.xfers) {
        const TransferDesc &x = prog.nodes[t].xfer;
        if (x.sparse) {
            an.readers[x.addrMem].push_back(
                {ReaderDesc::Kind::kGatherAddr, t, -1});
            an.writers[x.sram].push_back(
                {WriterDesc::Kind::kGatherDst, t, -1});
        } else if (x.load) {
            an.writers[x.sram].push_back(
                {WriterDesc::Kind::kXferLoad, t, -1});
        } else {
            an.readers[x.sram].push_back(
                {ReaderDesc::Kind::kXferStore, t, -1});
        }
    }

    // Rotation level and N-buffer contributors per SRAM: the outermost
    // common ancestor of a writer and a reader, and every metapipe
    // among those ancestors.
    an.rotNode.assign(prog.mems.size(), kNone);
    an.nbufContrib.resize(prog.mems.size());
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind != MemKind::kSram)
            continue;
        NodeId rot = kNone;
        for (const WriterDesc &w : an.writers[m]) {
            for (const ReaderDesc &r : an.readers[m]) {
                NodeId l = lca(prog, w.node, r.node);
                if (rot == kNone || depthOf(prog, rot) > depthOf(prog, l))
                    rot = l;
                const Node &ln = prog.nodes[l];
                if (ln.kind == NodeKind::kOuter &&
                    ln.scheme == CtrlScheme::kMetapipe)
                    an.nbufContrib[m].insert(l);
            }
        }
        an.rotNode[m] = rot == kNone ? prog.root : rot;
    }
    return an;
}

uint64_t
scratchpadWords(const MemDecl &md, const PmuParams &pmu)
{
    return md.mode == BankingMode::kDup ? pmu.totalWords() / pmu.banks
                                        : pmu.totalWords();
}

CompileDiagnostics
checkDemand(const Program &prog, const Analysis &an, const ArchParams &P,
            const UnitMask &mask)
{
    // The counts mirror unit construction: one PCU per partition
    // chunk, one PMU per (memory, reader), one AG per transfer, DRAM
    // stream and stream-out sink, one control box per outer controller.
    CompileDiagnostics diag;
    auto pushCheck = [&](const char *res, uint64_t demand,
                         uint64_t capacity, const std::string &detail) {
        diag.checks.push_back(
            {res, demand, capacity, demand > capacity, detail});
    };

    uint64_t pcuDemand = 0, agDemand = an.xfers.size();
    uint32_t maxVi = 0, maxVo = 0, maxSi = 0, maxSo = 0;
    for (NodeId l : an.leaves) {
        auto it = an.vleaves.find(l);
        if (it == an.vleaves.end())
            continue; // lowering failed; the analysis recorded it
        const VirtualLeaf &vl = it->second;
        const PartitionResult &pr = an.parts.at(l);
        if (pr.ok) {
            pcuDemand += pr.chunks.size();
            for (const Chunk &ch : pr.chunks) {
                maxVi = std::max(maxVi, ch.metrics.vectorIns);
                maxVo = std::max(maxVo, ch.metrics.vectorOuts);
                maxSi = std::max(maxSi, ch.metrics.scalarIns);
                maxSo = std::max(maxSo, ch.metrics.scalarOuts);
            }
        } else {
            diag.checks.push_back({"pcu.pipeline", 0, 0, true,
                                   strfmt("leaf '%s': %s", vl.name.c_str(),
                                          pr.error.c_str())});
        }
        for (const VecSource &src : vl.vecSources)
            if (src.kind == VecSource::Kind::kDramStream)
                ++agDemand;
        for (const Sink &sk : prog.nodes[l].sinks)
            if (sk.kind == SinkKind::kStreamOut ||
                sk.kind == SinkKind::kScatterOut)
                ++agDemand;
    }

    // SRAM memories some unit reads or writes, in declaration order.
    std::vector<MemId> srams;
    uint64_t pmuDemand = 0;
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        uint64_t rds = an.readers[m].size(), wrs = an.writers[m].size();
        if (prog.mems[m].kind != MemKind::kSram || (rds == 0 && wrs == 0))
            continue;
        srams.push_back(static_cast<MemId>(m));
        if (wrs > 2)
            pushCheck("pmu.writePorts", wrs, 2,
                      strfmt("memory '%s'", prog.mems[m].name.c_str()));
        pmuDemand += std::max<uint64_t>(rds, 1);
    }

    auto maskedCount = [](const std::vector<uint32_t> &masked,
                          uint32_t capacity) {
        uint32_t n = 0;
        for (uint32_t m : masked)
            n += m < capacity ? 1 : 0;
        return n;
    };
    uint32_t maskedPcus = maskedCount(mask.pcus, P.numPcus());
    uint32_t maskedPmus = maskedCount(mask.pmus, P.numPmus());
    pushCheck("pcu", pcuDemand, P.numPcus() - maskedPcus,
              maskedPcus ? strfmt("%u masked as faulted", maskedPcus)
                         : "");
    pushCheck("pmu", pmuDemand, P.numPmus() - maskedPmus,
              maskedPmus ? strfmt("%u masked as faulted", maskedPmus)
                         : "");
    pushCheck("ag", agDemand, P.numAgs, "");
    pushCheck("box", an.outers.size(),
              static_cast<uint64_t>(P.switchCols()) * P.switchRows(), "");
    pushCheck("pcu.vectorIns", maxVi, P.pcu.vectorIns, "");
    pushCheck("pcu.vectorOuts", maxVo, P.pcu.vectorOuts, "");
    pushCheck("pcu.scalarIns", maxSi, P.pcu.scalarIns, "");
    pushCheck("pcu.scalarOuts", maxSo, P.pcu.scalarOuts, "");

    // Scratchpad bytes at the N-buffer floor: capacity spilling can
    // shrink a memory down to nbufMin, so only a memory whose floor
    // exceeds the physical scratchpad is infeasible here.
    uint64_t worstWords = 0;
    std::string worstMem;
    bool scratchOver = false;
    for (MemId mid : srams) {
        const MemDecl &md = prog.mems[mid];
        uint64_t effective = scratchpadWords(md, P.pmu);
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
        pushCheck("pmu.scratchpad", worstWords, P.pmu.totalWords(),
                  strfmt("largest memory '%s'", worstMem.c_str()));

    for (const ResourceCheck &c : diag.checks) {
        if (c.over && diag.binding.empty())
            diag.binding = c.resource;
    }
    diag.feasible = diag.binding.empty();
    return diag;
}

uint32_t
DepthPlan::metapipeDepth(const Program &prog, NodeId o) const
{
    const Node &n = prog.nodes[o];
    uint32_t d = n.depthHint ? n.depthHint
                             : static_cast<uint32_t>(n.children.size());
    auto it = caps.find(o);
    if (it != caps.end())
        d = std::min(d, it->second);
    return std::max(d, 1u);
}

DepthPlan
planDepths(const Program &prog, const Analysis &an, const PmuParams &pmu,
           bool allowSpill)
{
    constexpr uint32_t kMaxSpillRounds = 8;
    DepthPlan plan;
    plan.nbuf.assign(prog.mems.size(), 0);
    for (uint32_t round = 0;; ++round) {
        // Depths under the current caps; the first SRAM some unit
        // touches whose buffers exceed the scratchpad (or the 8-bit
        // depth field) overflows.
        plan.overflow = kNone;
        uint64_t maxBufs = 0;
        for (size_t m = 0; m < prog.mems.size(); ++m) {
            const MemDecl &md = prog.mems[m];
            if (md.kind != MemKind::kSram)
                continue;
            uint32_t nbuf = md.nbufMin;
            for (NodeId c : an.nbufContrib[m])
                nbuf = std::max(nbuf, plan.metapipeDepth(prog, c));
            plan.nbuf[m] = std::max<uint32_t>(nbuf, 1);
            uint64_t effective = scratchpadWords(md, pmu);
            bool touched = !an.readers[m].empty() || !an.writers[m].empty();
            if (plan.overflow == kNone && touched && md.sizeWords > 0 &&
                (uint64_t{plan.nbuf[m]} * md.sizeWords > effective ||
                 plan.nbuf[m] > 255)) {
                plan.overflow = static_cast<MemId>(m);
                maxBufs = std::min<uint64_t>(effective / md.sizeWords, 255);
            }
        }
        if (plan.overflow == kNone || round >= kMaxSpillRounds)
            return plan;

        // Cap the overflow's metapipes at the depth that fits, when
        // its floor fits and a metapipe drives it.
        const MemDecl &md = prog.mems[plan.overflow];
        const std::set<NodeId> &nodes = an.nbufContrib[plan.overflow];
        const uint32_t fromBufs = plan.nbuf[plan.overflow];
        if (!allowSpill || maxBufs < std::max<uint32_t>(md.nbufMin, 1) ||
            maxBufs >= fromBufs || nodes.empty())
            return plan;
        bool changed = false;
        for (NodeId nd : nodes) {
            auto it = plan.caps.find(nd);
            if (it != plan.caps.end() && maxBufs >= it->second)
                continue;
            plan.caps[nd] = static_cast<uint32_t>(maxBufs);
            changed = true;
            plan.spills.push_back({md.name, prog.nodes[nd].name, fromBufs,
                                   static_cast<uint32_t>(maxBufs)});
        }
        if (!changed)
            return plan;
    }
}

} // namespace plast::compiler

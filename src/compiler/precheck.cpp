#include "compiler/precheck.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "base/logging.hpp"
#include "compiler/partition.hpp"
#include "compiler/vleaf.hpp"

namespace plast::compiler
{

using namespace pir;

namespace
{

uint32_t
maskedCount(const std::vector<uint32_t> &masked, uint32_t capacity)
{
    uint32_t n = 0;
    for (uint32_t m : masked)
        n += m < capacity ? 1 : 0;
    return n;
}

} // namespace

CompileDiagnostics
precheckProgram(const Program &prog, const ArchParams &params,
                const UnitMask &mask)
{
    CompileDiagnostics diag;

    // ---- walk the controller tree --------------------------------
    std::vector<NodeId> leaves, xfers;
    uint64_t outers = 0;
    std::function<void(NodeId)> walk = [&](NodeId id) {
        const Node &n = prog.nodes[id];
        switch (n.kind) {
          case NodeKind::kOuter:
            ++outers;
            for (NodeId c : n.children)
                walk(c);
            return;
          case NodeKind::kCompute:
            leaves.push_back(id);
            return;
          case NodeKind::kTransfer:
            xfers.push_back(id);
            return;
        }
    };
    walk(prog.root);

    // ---- PCU demand: one per partition chunk ---------------------
    uint64_t pcuDemand = 0;
    uint32_t maxVi = 0, maxVo = 0, maxSi = 0, maxSo = 0;
    std::map<NodeId, VirtualLeaf> vleaves;
    for (NodeId l : leaves) {
        VirtualLeaf vl = lowerLeaf(prog, l, params.pcu.lanes);
        if (!vl.error.empty())
            continue; // mapper reports the per-leaf diagnosis
        PartitionResult pr = partitionLeaf(vl, params.pcu);
        if (!pr.ok) {
            ResourceCheck c;
            c.resource = "pcu.pipeline";
            c.over = true;
            c.detail = strfmt("leaf '%s': %s", vl.name.c_str(),
                              pr.error.c_str());
            diag.checks.push_back(c);
            vleaves.emplace(l, std::move(vl));
            continue;
        }
        pcuDemand += pr.chunks.size();
        for (const Chunk &ch : pr.chunks) {
            maxVi = std::max(maxVi, ch.metrics.vectorIns);
            maxVo = std::max(maxVo, ch.metrics.vectorOuts);
            maxSi = std::max(maxSi, ch.metrics.scalarIns);
            maxSo = std::max(maxSo, ch.metrics.scalarOuts);
        }
        vleaves.emplace(l, std::move(vl));
    }

    // ---- memory readers / writers (mirrors Mapper::analyze) ------
    std::map<MemId, uint64_t> readerCount, writerCount;
    for (NodeId l : leaves) {
        auto it = vleaves.find(l);
        if (it == vleaves.end())
            continue;
        const VirtualLeaf &vl = it->second;
        for (const VecSource &src : vl.vecSources) {
            if (src.kind == VecSource::Kind::kDramStream)
                continue;
            readerCount[prog.exprs[src.expr].mem]++;
        }
        const Node &n = prog.nodes[l];
        for (const Sink &sk : n.sinks) {
            bool sramWrite = sk.kind == SinkKind::kStoreSram ||
                             sk.kind == SinkKind::kFlatMapSram ||
                             (sk.kind == SinkKind::kFold &&
                              sk.dest == FoldDest::kSramAddr);
            if (sramWrite)
                writerCount[sk.mem]++;
        }
    }
    for (NodeId t : xfers) {
        const TransferDesc &x = prog.nodes[t].xfer;
        if (x.sparse) {
            readerCount[x.addrMem]++;
            writerCount[x.sram]++;
        } else if (x.load) {
            writerCount[x.sram]++;
        } else {
            readerCount[x.sram]++;
        }
    }

    // ---- PMU demand: one per (memory, reader) --------------------
    uint64_t pmuDemand = 0;
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        if (prog.mems[m].kind != MemKind::kSram)
            continue;
        MemId mid = static_cast<MemId>(m);
        uint64_t rds = readerCount.count(mid) ? readerCount[mid] : 0;
        uint64_t wrs = writerCount.count(mid) ? writerCount[mid] : 0;
        if (rds == 0 && wrs == 0)
            continue;
        if (wrs > 2) {
            ResourceCheck c;
            c.resource = "pmu.writePorts";
            c.demand = wrs;
            c.capacity = 2;
            c.over = true;
            c.detail = strfmt("memory '%s'", prog.mems[m].name.c_str());
            diag.checks.push_back(c);
        }
        pmuDemand += std::max<uint64_t>(rds, 1);
    }

    // ---- AG demand: transfers + streams + stream-out sinks -------
    uint64_t agDemand = xfers.size();
    for (NodeId l : leaves) {
        auto it = vleaves.find(l);
        if (it == vleaves.end())
            continue;
        const VirtualLeaf &vl = it->second;
        for (const VecSource &src : vl.vecSources)
            if (src.kind == VecSource::Kind::kDramStream)
                ++agDemand;
        for (const Sink &sk : prog.nodes[l].sinks)
            if (sk.kind == SinkKind::kStreamOut ||
                sk.kind == SinkKind::kScatterOut)
                ++agDemand;
    }

    // ---- unit-count checks ---------------------------------------
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
    uint32_t maskedPcus = maskedCount(mask.pcus, params.numPcus());
    uint32_t maskedPmus = maskedCount(mask.pmus, params.numPmus());
    pushCheck("pcu", pcuDemand, params.numPcus() - maskedPcus,
              maskedPcus ? strfmt("%u masked as faulted", maskedPcus)
                         : "");
    pushCheck("pmu", pmuDemand, params.numPmus() - maskedPmus,
              maskedPmus ? strfmt("%u masked as faulted", maskedPmus)
                         : "");
    pushCheck("ag", agDemand, params.numAgs, "");
    // One control box per outer controller, each on its own switch.
    pushCheck("box", outers,
              static_cast<uint64_t>(params.switchCols()) *
                  params.switchRows(),
              "");

    // ---- per-port channel pressure (chunk maxima vs PCU ports) ---
    pushCheck("pcu.vectorIns", maxVi, params.pcu.vectorIns, "");
    pushCheck("pcu.vectorOuts", maxVo, params.pcu.vectorOuts, "");
    pushCheck("pcu.scalarIns", maxSi, params.pcu.scalarIns, "");
    pushCheck("pcu.scalarOuts", maxSo, params.pcu.scalarOuts, "");

    // ---- scratchpad bytes at the spill floor ---------------------
    // Capacity spilling can shrink N-buffer depth down to nbufMin, so
    // only a memory whose floor demand exceeds the physical scratchpad
    // is genuinely infeasible.
    uint64_t worstWords = 0;
    std::string worstMem;
    bool scratchOver = false;
    for (size_t m = 0; m < prog.mems.size(); ++m) {
        const MemDecl &md = prog.mems[m];
        if (md.kind != MemKind::kSram)
            continue;
        MemId mid = static_cast<MemId>(m);
        if (!readerCount.count(mid) && !writerCount.count(mid))
            continue;
        uint64_t effective = md.mode == BankingMode::kDup
                                 ? params.pmu.totalWords() /
                                       params.pmu.banks
                                 : params.pmu.totalWords();
        uint64_t floorWords =
            static_cast<uint64_t>(std::max<uint32_t>(md.nbufMin, 1)) *
            md.sizeWords;
        if (floorWords > effective) {
            ResourceCheck c;
            c.resource = "pmu.scratchpad";
            c.demand = floorWords;
            c.capacity = effective;
            c.over = true;
            c.detail = strfmt("memory '%s' (%u words x %u bufs min)",
                              md.name.c_str(),
                              static_cast<uint32_t>(md.sizeWords),
                              std::max<uint32_t>(md.nbufMin, 1));
            diag.checks.push_back(c);
            scratchOver = true;
        } else if (floorWords > worstWords) {
            worstWords = floorWords;
            worstMem = md.name;
        }
    }
    if (!scratchOver && worstWords > 0) {
        uint64_t effective = params.pmu.totalWords();
        pushCheck("pmu.scratchpad", worstWords, effective,
                  strfmt("largest memory '%s'", worstMem.c_str()));
    }

    // ---- verdict -------------------------------------------------
    diag.feasible = true;
    for (const ResourceCheck &c : diag.checks) {
        if (c.over) {
            diag.feasible = false;
            if (diag.binding.empty())
                diag.binding = c.resource;
        }
    }
    return diag;
}

} // namespace plast::compiler

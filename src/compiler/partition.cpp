#include "compiler/partition.hpp"

#include <algorithm>
#include <set>

#include "base/logging.hpp"

namespace plast::compiler
{

std::vector<int32_t>
computeLastUse(const VirtualLeaf &leaf)
{
    std::vector<int32_t> last(leaf.values.size(), -1);
    for (size_t i = 0; i < leaf.ops.size(); ++i) {
        for (int32_t v : {leaf.ops[i].a, leaf.ops[i].b, leaf.ops[i].c}) {
            if (v >= 0)
                last[v] = static_cast<int32_t>(i);
        }
    }
    return last;
}

namespace
{

struct Analyzer
{
    const VirtualLeaf &leaf;
    const std::vector<int32_t> &lastUse;
    /** # scalar emissions per defining value. */
    std::vector<uint32_t> scalEmits;
    std::vector<uint32_t> vecEmits;
    uint32_t dynBoundScalars = 0;

    explicit Analyzer(const VirtualLeaf &l,
                      const std::vector<int32_t> &lu)
        : leaf(l), lastUse(lu), scalEmits(l.values.size(), 0),
          vecEmits(l.values.size(), 0)
    {
        for (const VEmission &em : leaf.emissions) {
            if (em.value < 0)
                continue;
            if (em.kind == VEmission::Kind::kScalOut)
                ++scalEmits[em.value];
            else if (em.kind == VEmission::Kind::kVecOut)
                ++vecEmits[em.value];
        }
        // kCountOut emissions ride on the coalescing vector output's
        // chunk; they cost a scalar output there.
        for (const VEmission &em : leaf.emissions) {
            if (em.kind != VEmission::Kind::kCountOut)
                continue;
            for (const VEmission &vo : leaf.emissions) {
                if (vo.kind == VEmission::Kind::kVecOut &&
                    vo.sinkIdx == em.countOfSink && vo.coalesce &&
                    vo.value >= 0)
                    ++scalEmits[vo.value];
            }
        }
        for (int8_t d : leaf.dynBoundScalar)
            dynBoundScalars += d >= 0 ? 1 : 0;
    }

    /** Metrics of the candidate chunk [first..last]. */
    ChunkMetrics
    metrics(int32_t first, int32_t last) const
    {
        ChunkMetrics m;
        m.stages = static_cast<uint32_t>(last - first + 1);

        std::set<int32_t> scalars, vec_ext, vec_fwd, vouts;
        uint32_t souts = 0;
        for (int32_t i = first; i <= last; ++i) {
            const VOp &op = leaf.ops[i];
            for (int32_t v : {op.a, op.b, op.c}) {
                if (v < 0)
                    continue;
                const VValue &val = leaf.values[v];
                switch (val.kind) {
                  case VValue::Kind::kScalar:
                    scalars.insert(val.index);
                    break;
                  case VValue::Kind::kVecIn:
                    vec_ext.insert(val.index);
                    break;
                  case VValue::Kind::kOp:
                    if (val.def < first)
                        vec_fwd.insert(v);
                    break;
                  default:
                    break;
                }
            }
        }
        // Values defined here and needed later, plus emissions.
        for (int32_t i = first; i <= last; ++i) {
            int32_t v = leaf.ops[i].result;
            if (v < 0)
                continue;
            if (lastUse[v] > last)
                vouts.insert(v);
            if (vecEmits[v] > 0)
                vouts.insert(v); // emission shares a vector output port
            souts += scalEmits[v];
        }
        // Peak live registers: op results defined at or before stage p
        // still needed after stage p (in-chunk use, later chunk, or
        // emission at retire).
        uint32_t peak = 0;
        for (int32_t p = first; p <= last; ++p) {
            uint32_t live = 0;
            for (int32_t i = first; i <= p; ++i) {
                int32_t v = leaf.ops[i].result;
                if (v < 0)
                    continue;
                bool needed = lastUse[v] > p || vecEmits[v] > 0 ||
                              scalEmits[v] > 0;
                if (needed)
                    ++live;
            }
            peak = std::max(peak, live);
        }

        m.scalarIns =
            static_cast<uint32_t>(scalars.size()) + dynBoundScalars;
        m.vectorIns =
            static_cast<uint32_t>(vec_ext.size() + vec_fwd.size());
        m.vectorOuts = static_cast<uint32_t>(vouts.size());
        m.scalarOuts = souts;
        m.regs = peak;
        return m;
    }

    bool
    fits(const ChunkMetrics &m, const PcuParams &p) const
    {
        return m.stages <= p.stages && m.regs <= p.regsPerStage &&
               m.scalarIns <= p.scalarIns && m.scalarOuts <= p.scalarOuts &&
               m.vectorIns <= p.vectorIns && m.vectorOuts <= p.vectorOuts;
    }
};

} // namespace

PartitionResult
partitionLeaf(const VirtualLeaf &leaf, const PcuParams &params)
{
    PartitionResult res;
    if (leaf.ops.empty()) {
        res.error = "leaf has no operations";
        return res;
    }
    if (leaf.chain.ctrs.size() > params.counters) {
        res.error = strfmt("%zu counters exceed the chain depth %u",
                           leaf.chain.ctrs.size(), params.counters);
        return res;
    }

    std::vector<int32_t> last_use = computeLastUse(leaf);
    Analyzer an(leaf, last_use);

    int32_t first = 0;
    const int32_t n = static_cast<int32_t>(leaf.ops.size());
    for (int32_t i = 0; i < n; ++i) {
        ChunkMetrics m = an.metrics(first, i);
        if (!an.fits(m, params)) {
            if (i == first) {
                res.error = strfmt(
                    "op %d does not fit an empty PCU (stages=%u regs=%u "
                    "si=%u so=%u vi=%u vo=%u)",
                    i, m.stages, m.regs, m.scalarIns, m.scalarOuts,
                    m.vectorIns, m.vectorOuts);
                return res;
            }
            Chunk c;
            c.firstOp = first;
            c.lastOp = i - 1;
            c.metrics = an.metrics(first, i - 1);
            res.chunks.push_back(c);
            first = i;
            // Re-check the op in its fresh chunk.
            ChunkMetrics m2 = an.metrics(first, i);
            if (!an.fits(m2, params)) {
                res.error = strfmt(
                    "op %d does not fit an empty PCU (stages=%u regs=%u "
                    "si=%u so=%u vi=%u vo=%u)",
                    i, m2.stages, m2.regs, m2.scalarIns, m2.scalarOuts,
                    m2.vectorIns, m2.vectorOuts);
                return res;
            }
        }
        if (leaf.ops[i].barrierAfter && i + 1 < n) {
            Chunk c;
            c.firstOp = first;
            c.lastOp = i;
            c.metrics = an.metrics(first, i);
            res.chunks.push_back(c);
            first = i + 1;
        }
    }
    if (first < n) {
        Chunk c;
        c.firstOp = first;
        c.lastOp = n - 1;
        c.metrics = an.metrics(first, n - 1);
        res.chunks.push_back(c);
    }
    res.ok = true;
    return res;
}

int32_t
chunkOfOp(const PartitionResult &part, int32_t opIdx)
{
    for (size_t c = 0; c < part.chunks.size(); ++c) {
        if (opIdx >= part.chunks[c].firstOp &&
            opIdx <= part.chunks[c].lastOp)
            return static_cast<int32_t>(c);
    }
    panic("chunkOfOp: op %d not in any chunk", opIdx);
}

} // namespace plast::compiler

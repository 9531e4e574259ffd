/**
 * @file
 * Ablations of the design choices DESIGN.md calls out (§3.2-§3.5 of
 * the paper):
 *
 *   1. banking modes: duplication vs strided scratchpads under
 *      conflicting parallel random reads,
 *   2. coarse-grained pipelining: metapipelined vs sequential tile
 *      loops (tokens + N-buffering at work),
 *   3. the coalescing cache: sparse gather performance vs the number
 *      of merge entries.
 */

#include <cstdio>
#include <memory>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "common.hpp"
#include "pir/builder.hpp"
#include "sim/pmu.hpp"

using namespace plast;
using namespace plast::pir;

namespace
{

// ---- 1. banking-mode ablation (unit level) --------------------------

Cycles
gatherCycles(BankingMode mode)
{
    ArchParams params;
    PmuCfg cfg;
    cfg.used = true;
    cfg.scratch.mode = mode;
    cfg.scratch.sizeWords = 1024;
    CounterCfg cc;
    cc.vectorized = true;
    cc.max = 64 * 16;
    cfg.read.enabled = true;
    cfg.read.chain.ctrs = {cc};
    cfg.read.addrVecIn = 0;
    cfg.read.dataVecOut = 0;
    PmuSim pmu(params, 0, cfg);
    VectorStream addrs("a", 1, 256), out("o", 1, 256);
    pmu.ports.vecIn[0].stream = &addrs;
    pmu.ports.vecOut[0].sinks.push_back(&out);

    // Worst-case conflicts: all lanes hit the same bank.
    Cycles now = 0;
    int pushed = 0, popped = 0;
    while (popped < 64 && now < 100000) {
        if (pushed < 64 && addrs.canPush()) {
            Vec v;
            for (uint32_t l = 0; l < 16; ++l) {
                v.lane[l] = l * 16; // same bank in strided mode
                v.setValid(l);
            }
            addrs.push(v);
            ++pushed;
        }
        pmu.step(now);
        addrs.commit(now);
        out.commit(now);
        while (out.canPop()) {
            out.pop();
            ++popped;
        }
        ++now;
    }
    return now;
}

// ---- 2. control-scheme ablation (program level) ----------------------

Cycles
tilePipeline(CtrlScheme scheme)
{
    const int64_t tiles = 8, tw = 512;
    Builder b(scheme == CtrlScheme::kMetapipe ? "meta" : "seq");
    MemId in = b.dram("in", tiles * tw), out = b.dram("out", tiles * tw);
    MemId sa = b.sram("tin", tw), sb = b.sram("tout", tw);
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    CtrId t = b.ctr("t", 0, tiles);
    NodeId loop = b.outer("loop", scheme, {t}, root);
    ExprId base = b.imul(b.ctrE(t), b.immI(static_cast<int32_t>(tw)));
    b.loadTile("ld", loop, in, sa, base, 1, tw, 0);
    CtrId i = b.ctr("i", 0, tw, 1, true);
    ExprId v = b.fmul(b.load(sa, b.ctrE(i)), b.immF(3.0f));
    b.compute("scale", loop, {i}, {}, {},
              {Builder::storeSram(sb, b.ctrE(i), v)});
    b.storeTile("st", loop, out, sb, base, 1, tw, 0);

    Runner r(b.finish(root));
    auto &data = r.dram(in);
    for (size_t k = 0; k < data.size(); ++k)
        data[k] = floatToWord(static_cast<float>(k));
    return r.runValidated().cycles;
}

// ---- 3. coalescing-cache ablation ------------------------------------

Cycles
smdvWithCache(uint32_t lines)
{
    ArchParams params;
    params.coalescerCacheLines = lines;
    apps::AppInstance app = apps::makeSmdv(apps::Scale::kTiny);
    Runner r(app.prog, params);
    app.load(r);
    return r.run().cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string json_path;
    if (auto rc = bench::flags("bench_ablation", json_path).parse(argc, argv))
        return *rc;
    StatSet json_stats;

    std::printf("=== ablation 1: scratchpad banking under conflicting "
                "parallel reads ===\n");
    Cycles strided = gatherCycles(BankingMode::kStrided);
    Cycles dup = gatherCycles(BankingMode::kDup);
    std::printf("  strided (16-way conflict): %6llu cycles\n",
                static_cast<unsigned long long>(strided));
    std::printf("  duplication mode:          %6llu cycles  (%.1fx)\n",
                static_cast<unsigned long long>(dup),
                static_cast<double>(strided) / dup);
    json_stats.set("banking.strided.cycles", strided);
    json_stats.set("banking.dup.cycles", dup);

    std::printf("\n=== ablation 2: coarse-grained pipelining of a tile "
                "loop (load -> compute -> store) ===\n");
    Cycles seq = tilePipeline(CtrlScheme::kSequential);
    Cycles meta = tilePipeline(CtrlScheme::kMetapipe);
    std::printf("  sequential:  %6llu cycles\n",
                static_cast<unsigned long long>(seq));
    std::printf("  metapipe:    %6llu cycles  (%.2fx, via tokens + "
                "N-buffered tiles)\n",
                static_cast<unsigned long long>(meta),
                static_cast<double>(seq) / meta);
    json_stats.set("pipelining.sequential.cycles", seq);
    json_stats.set("pipelining.metapipe.cycles", meta);

    std::printf("\n=== ablation 3: coalescing-cache size on SMDV "
                "gathers ===\n");
    for (uint32_t lines : {1u, 4u, 32u}) {
        Cycles c = smdvWithCache(lines);
        std::printf("  %2u merge entries: %6llu cycles\n", lines,
                    static_cast<unsigned long long>(c));
        json_stats.set("coalescer.lines" + std::to_string(lines) +
                           ".cycles",
                       c);
    }
    bench::writeStatsJson(json_path, json_stats, "ablation");
    return 0;
}

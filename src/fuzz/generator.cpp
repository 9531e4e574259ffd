#include "fuzz/generator.hpp"

#include <cstdint>
#include <vector>

#include "base/logging.hpp"
#include "pir/builder.hpp"

namespace plast::fuzz
{

using namespace pir;

namespace
{

/** Pick one element of a fixed option list. */
template <typename T, size_t N>
T
pick(Rng &rng, const T (&opts)[N])
{
    return opts[rng.nextBounded(N)];
}

/** Binary combiner ops that keep int values small and well-defined
 *  (no multiplies: wraparound int multiply is signed-overflow UB). */
FuOp
intBinOp(Rng &rng)
{
    static const FuOp ops[] = {FuOp::kIAdd, FuOp::kISub, FuOp::kIMin,
                               FuOp::kIMax, FuOp::kAnd,  FuOp::kOr,
                               FuOp::kXor};
    return pick(rng, ops);
}

FuOp
floatBinOp(Rng &rng)
{
    static const FuOp ops[] = {FuOp::kFAdd, FuOp::kFSub, FuOp::kFMul,
                               FuOp::kFMin, FuOp::kFMax};
    return pick(rng, ops);
}

FuOp
foldOp(Rng &rng, bool isFloat)
{
    if (isFloat) {
        static const FuOp ops[] = {FuOp::kFAdd, FuOp::kFMin,
                                   FuOp::kFMax};
        return pick(rng, ops);
    }
    static const FuOp ops[] = {FuOp::kIAdd, FuOp::kIMin, FuOp::kIMax};
    return pick(rng, ops);
}

ExprId
randImm(Builder &b, Rng &rng, bool isFloat)
{
    if (isFloat)
        return b.immF(rng.nextFloat(-2.0f, 2.0f));
    return b.immI(static_cast<int32_t>(rng.nextBounded(1 << 15)));
}

/**
 * Wrap one kernel in its own outer controller under `root`. The
 * single-trip counter keeps the wrapper a real controller (boxes with
 * counter chains are the proven idiom) while leaving the semantics of
 * its children untouched, and gives the shrinker a one-node handle on
 * the whole kernel.
 */
NodeId
wrapKernel(Builder &b, NodeId root, int k, CtrlScheme scheme)
{
    CtrId w = b.ctr(strfmt("w%d", k), 0, 1);
    return b.outer(strfmt("kernel%d", k), scheme, {w}, root);
}

// ---- T1: streamed fold ---------------------------------------------
// DRAM streams feed an expression DAG whose result folds to an argOut,
// optionally through a Mux filter (TPCH-Q6 shape) and optionally split
// into `par` partial folds combined by a one-trip leaf.
void
genStreamFold(Builder &b, NodeId root, Rng &rng, int k)
{
    const bool isFloat = rng.nextBounded(2) == 0;
    const uint32_t nStreams = 1 + static_cast<uint32_t>(rng.nextBounded(2));
    const uint32_t par = 1 + static_cast<uint32_t>(rng.nextBounded(2));
    const int64_t n =
        static_cast<int64_t>(par) * 16 * (1 + static_cast<int64_t>(rng.nextBounded(8)));
    const FuOp fop = foldOp(rng, isFloat);
    const bool filter = rng.nextBounded(3) == 0;

    NodeId wrap = wrapKernel(b, root, k, CtrlScheme::kSequential);
    int32_t out = b.argOut();

    std::vector<MemId> ins;
    for (uint32_t s = 0; s < nStreams; ++s)
        ins.push_back(b.dram(strfmt("%cin%d_%u", isFloat ? 'f' : 'i', k, s),
                             static_cast<uint64_t>(n)));

    // The per-leaf dataflow is identical across partial folds; only the
    // counter range differs (outer-loop unrolling, §3.6).
    const FuOp combine2 = nStreams == 2 ? (isFloat ? floatBinOp(rng)
                                                   : intBinOp(rng))
                                        : FuOp::kNop;
    const bool extraOp = rng.nextBounded(2) == 0;
    const FuOp extra = isFloat ? floatBinOp(rng) : intBinOp(rng);
    const ExprId extraImm = randImm(b, rng, isFloat);
    const FuOp cmp = isFloat ? FuOp::kFGe : FuOp::kIGe;
    const ExprId cmpImm = isFloat
                              ? b.immF(rng.nextFloat(-1.0f, 1.0f))
                              : b.immI(static_cast<int32_t>(
                                    rng.nextBounded(1 << 14)));

    std::vector<ScalarIn> parts;
    const int64_t chunk = n / par;
    for (uint32_t p = 0; p < par; ++p) {
        CtrId i = b.ctr(strfmt("i%d_%u", k, p),
                        static_cast<int64_t>(p) * chunk,
                        static_cast<int64_t>(p + 1) * chunk, 1,
                        /*vectorized=*/true);
        ExprId ie = b.ctrE(i);
        ExprId val = b.streamRef(0);
        if (nStreams == 2)
            val = b.alu(combine2, val, b.streamRef(1));
        if (extraOp)
            val = b.alu(extra, val, extraImm);
        if (filter) {
            // Rows failing the predicate contribute the fold identity.
            ExprId cond = b.alu(cmp, b.streamRef(0), cmpImm);
            val = b.alu(FuOp::kMux, cond, val, b.imm(fuOpIdentity(fop)));
        }
        std::vector<StreamIn> sis;
        for (MemId m : ins)
            sis.push_back(StreamIn{m, ie});
        if (par == 1) {
            b.compute(strfmt("sf%d", k), wrap, {i}, sis, {},
                      {Builder::fold(fop, val, i, out)});
        } else {
            NodeId leaf =
                b.compute(strfmt("sf%d_%u", k, p), wrap, {i}, sis, {},
                          {Builder::foldToScalar(fop, val, i)});
            parts.push_back({leaf, 0});
        }
    }
    if (par > 1) {
        CtrId one = b.ctr(strfmt("c%d.one", k), 0, 1, 1, true);
        ExprId sum = b.scalarRef(0);
        for (size_t i = 1; i < parts.size(); ++i)
            sum = b.alu(fop, sum, b.scalarRef(static_cast<int32_t>(i)));
        b.compute(strfmt("combine%d", k), wrap, {one}, {}, parts,
                  {Builder::fold(fop, sum, one, out)});
    }
}

// ---- T2: tiled map --------------------------------------------------
// loadTile -> elementwise compute through an SRAM -> storeTile, under a
// sequential or metapipelined tile loop (SMDV/GEMM shape). Exercises
// the dense AG path, double buffering and vector-linear PMU access.
// `tileScale` multiplies the whole vectors of a row tile.
void
genTileMap(Builder &b, NodeId root, Rng &rng, int k, uint32_t tileScale)
{
    const bool isFloat = rng.nextBounded(2) == 0;
    // Rows off the 16-lane grid end in a partial vector and, under a
    // small outstanding-burst budget, load as blocks that are not a
    // multiple of the lane count.
    static const int64_t rowTail[] = {0, 2, 9};
    const int64_t rt = 16 * int64_t{tileScale} *
                           (2 + static_cast<int64_t>(rng.nextBounded(3))) +
                       pick(rng, rowTail);
    const int64_t nT = 1 + static_cast<int64_t>(rng.nextBounded(3));
    const int64_t n = rt * nT;
    const CtrlScheme scheme = rng.nextBounded(2) == 0
                                  ? CtrlScheme::kSequential
                                  : CtrlScheme::kMetapipe;
    const uint32_t nbuf = 1 + static_cast<uint32_t>(rng.nextBounded(2));

    MemId vin = b.dram(strfmt("%cin%d", isFloat ? 'f' : 'i', k),
                       static_cast<uint64_t>(n));
    MemId vout = b.dram(strfmt("out%d", k), static_cast<uint64_t>(n));
    MemId sin = b.sram(strfmt("tin%d", k), static_cast<uint64_t>(rt),
                       BankingMode::kStrided, nbuf);
    MemId sout = b.sram(strfmt("tout%d", k), static_cast<uint64_t>(rt),
                        BankingMode::kStrided, nbuf);

    NodeId wrap = wrapKernel(b, root, k, CtrlScheme::kSequential);
    CtrId t = b.ctr(strfmt("t%d", k), 0, nT);
    NodeId tiles = b.outer(strfmt("tiles%d", k), scheme, {t}, wrap);

    ExprId base =
        b.imul(b.ctrE(t), b.immI(static_cast<int32_t>(rt)));
    b.loadTile(strfmt("load%d", k), tiles, vin, sin, base, 1, rt, 0);

    CtrId j = b.ctr(strfmt("j%d", k), 0, rt, 1, /*vectorized=*/true);
    ExprId x = b.load(sin, b.ctrE(j));
    ExprId val = rng.nextBounded(2) == 0
                     ? b.alu(isFloat ? floatBinOp(rng) : intBinOp(rng),
                             x, randImm(b, rng, isFloat))
                     : b.alu(isFloat ? floatBinOp(rng) : intBinOp(rng),
                             x, x);
    b.compute(strfmt("map%d", k), tiles, {j}, {}, {},
              {Builder::storeSram(sout, b.ctrE(j), val)});

    b.storeTile(strfmt("store%d", k), tiles, vout, sout, base, 1, rt, 0);
}

// ---- T4: SRAM producer/consumer chain ------------------------------
// A compute leaf fills a scratchpad from counter-derived values, then a
// sibling consumes it back through one of the three PMU read classes:
// vector-linear, duplicated-bank gather (BFS shape) or broadcast (GEMM
// shape), folding the result to an argOut. Integer data throughout so
// the gather's address arithmetic stays exact.
void
genSramChain(Builder &b, NodeId root, Rng &rng, int k)
{
    const int64_t m = 16 * (2 + static_cast<int64_t>(rng.nextBounded(7)));
    const int variant = static_cast<int>(rng.nextBounded(3));
    const FuOp fop = foldOp(rng, false);

    MemId s = b.sram(strfmt("is%d", k), static_cast<uint64_t>(m),
                     variant == 1 ? BankingMode::kDup
                                  : BankingMode::kStrided);
    NodeId wrap = wrapKernel(b, root, k, CtrlScheme::kSequential);
    int32_t out = b.argOut();

    // Producer: s[i] = f(i), vector-linear write.
    CtrId i = b.ctr(strfmt("p%d", k), 0, m, 1, /*vectorized=*/true);
    ExprId pv = b.alu(intBinOp(rng), b.ctrE(i),
                      b.immI(static_cast<int32_t>(rng.nextBounded(256))));
    b.compute(strfmt("fill%d", k), wrap, {i}, {}, {},
              {Builder::storeSram(s, b.ctrE(i), pv)});

    if (variant == 2) {
        // Broadcast consumer: the address depends only on the scalar
        // outer counter, so every lane reads the same word.
        const int64_t reps = 2 + static_cast<int64_t>(rng.nextBounded(3));
        CtrId kk = b.ctr(strfmt("k%d", k), 0, reps);
        CtrId j = b.ctr(strfmt("c%d", k), 0, 16, 1, true);
        ExprId x = b.load(s, b.ctrE(kk));
        ExprId val = b.iadd(x, b.ctrE(j));
        b.compute(strfmt("bcast%d", k), wrap, {kk, j}, {}, {},
                  {Builder::fold(fop, val, kk, out)});
        return;
    }

    CtrId j = b.ctr(strfmt("c%d", k), 0, m, 1, /*vectorized=*/true);
    ExprId addr = b.ctrE(j);
    if (variant == 1) {
        // Gather consumer: a permuted in-range address per lane
        // (odd multiplier modulo the power-of-two size).
        static const int32_t mul[] = {3, 5, 7, 9};
        addr = b.alu(FuOp::kAnd,
                     b.imul(addr, b.immI(pick(rng, mul))),
                     b.immI(static_cast<int32_t>(m - 1)));
    }
    ExprId x = b.load(s, addr);
    b.compute(strfmt("drain%d", k), wrap, {j}, {}, {},
              {Builder::fold(fop, x, j, out)});
}

// ---- T5: FlatMap pipeline ------------------------------------------
// A predicate over a streamed input appends survivors to a duplicated
// scratchpad (dynamic count); a consumer loop bounded by that count
// folds the survivors (BFS frontier shape). Checks the coalescing
// vector output, count plumbing and ctrDyn bounds.
void
genFlatMap(Builder &b, NodeId root, Rng &rng, int k)
{
    const int64_t n = 16 * (4 + static_cast<int64_t>(rng.nextBounded(5)));
    // Low threshold: the survivor set is empty with probability well
    // under 2^-100, so the consumer loop always has work.
    const int32_t thresh =
        1024 + static_cast<int32_t>(rng.nextBounded(4096));

    MemId vin = b.dram(strfmt("iin%d", k), static_cast<uint64_t>(n));
    MemId sf = b.sram(strfmt("if%d", k), static_cast<uint64_t>(n),
                      BankingMode::kDup);
    NodeId wrap = wrapKernel(b, root, k, CtrlScheme::kSequential);
    int32_t countOut = b.argOut();
    int32_t sumOut = b.argOut();

    CtrId nv = b.ctr(strfmt("n%d", k), 0, n, 1, /*vectorized=*/true);
    ExprId ne = b.ctrE(nv);
    ExprId keep = b.alu(FuOp::kIGe, b.streamRef(0), b.immI(thresh));
    NodeId prod =
        b.compute(strfmt("sel%d", k), wrap, {nv}, {StreamIn{vin, ne}},
                  {}, {Builder::flatMap(sf, ne, keep, countOut)});

    CtrId i1 = b.ctrDyn(strfmt("d%d", k), prod, 0, 0, 1,
                        /*vectorized=*/true);
    ExprId x = b.load(sf, b.ctrE(i1));
    b.compute(strfmt("red%d", k), wrap, {i1}, {}, {},
              {Builder::fold(FuOp::kIAdd, x, i1, sumOut)});
}

} // namespace

ArchParams
sampleArch(Rng &rng)
{
    ArchParams p = ArchParams::plasticineFinal();
    static const uint32_t cols[] = {12, 16};
    static const uint32_t rows[] = {6, 8};
    static const uint32_t stages[] = {6, 8};
    static const uint32_t fifo[] = {8, 16};
    static const uint32_t bankKb[] = {8, 16, 32};
    static const uint32_t chans[] = {2, 4};
    static const uint32_t qd[] = {16, 32};
    static const uint32_t vtr[] = {3, 4, 6};
    static const uint32_t str[] = {6, 8};
    static const uint32_t ags[] = {16, 34};
    static const uint32_t budget[] = {2, 3, 64};
    p.gridCols = pick(rng, cols);
    p.gridRows = pick(rng, rows);
    p.pcu.stages = pick(rng, stages);
    p.pcu.fifoDepth = pick(rng, fifo);
    p.pmu.bankKilobytes = pick(rng, bankKb);
    p.dram.channels = pick(rng, chans);
    p.dram.queueDepth = pick(rng, qd);
    p.vectorTracks = pick(rng, vtr);
    p.scalarTracks = pick(rng, str);
    p.numAgs = pick(rng, ags);
    p.coalescerMaxOutstanding = pick(rng, budget);
    return p;
}

ArchParams
sampleTightArch(Rng &rng)
{
    ArchParams p = ArchParams::plasticineFinal();
    static const uint32_t cols[] = {2, 3, 4};
    static const uint32_t rows[] = {2, 3};
    static const uint32_t stages[] = {4, 6};
    static const uint32_t bankKb[] = {1, 2};
    static const uint32_t chans[] = {1, 2};
    static const uint32_t vtr[] = {1, 2};
    static const uint32_t str[] = {2, 4};
    static const uint32_t ags[] = {2, 4, 6};
    p.gridCols = pick(rng, cols);
    p.gridRows = pick(rng, rows);
    p.pcu.stages = pick(rng, stages);
    p.pcu.fifoDepth = 8;
    p.pmu.bankKilobytes = pick(rng, bankKb);
    p.dram.channels = pick(rng, chans);
    p.dram.queueDepth = 8;
    p.vectorTracks = pick(rng, vtr);
    p.scalarTracks = pick(rng, str);
    p.numAgs = pick(rng, ags);
    return p;
}

pir::Program
generateProgram(Rng &rng, uint32_t tileScale)
{
    Builder b("fuzz");
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);
    const int kernels = 1 + static_cast<int>(rng.nextBounded(3));
    for (int k = 0; k < kernels; ++k) {
        switch (rng.nextBounded(4)) {
          case 0:
            genStreamFold(b, root, rng, k);
            break;
          case 1:
            genTileMap(b, root, rng, k, tileScale);
            break;
          case 2:
            genSramChain(b, root, rng, k);
            break;
          default:
            genFlatMap(b, root, rng, k);
            break;
        }
    }
    return b.finish(root);
}

} // namespace plast::fuzz

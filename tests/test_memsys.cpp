/** @file Address generators + coalescing units: dense splitting and
 *  reassembly, sparse merging, outstanding-request limits. */

#include <gtest/gtest.h>

#include "sim/memsys.hpp"

using namespace plast;

namespace
{

/** Harness around one AG + the memory system. */
struct AgHarness
{
    ArchParams params;
    MemSystem mem{params};
    std::unique_ptr<AgSim> ag;
    std::unique_ptr<VectorStream> out, addrIn, dataIn;
    Cycles now = 0;

    explicit AgHarness(AgCfg cfg)
    {
        cfg.used = true;
        ag = std::make_unique<AgSim>(params, 0, cfg, mem);
        if (cfg.dataVecOut >= 0) {
            out = std::make_unique<VectorStream>("out", 1, 64);
            ag->ports.vecOut[cfg.dataVecOut].sinks.push_back(out.get());
        }
        if (cfg.addrVecIn >= 0) {
            addrIn = std::make_unique<VectorStream>("addr", 1, 64);
            ag->ports.vecIn[cfg.addrVecIn].stream = addrIn.get();
        }
        if (cfg.dataVecIn >= 0) {
            dataIn = std::make_unique<VectorStream>("data", 1, 64);
            ag->ports.vecIn[cfg.dataVecIn].stream = dataIn.get();
        }
    }

    void
    step()
    {
        ag->step(now);
        mem.step(now);
        if (out)
            out->commit(now);
        if (addrIn)
            addrIn->commit(now);
        if (dataIn)
            dataIn->commit(now);
        ++now;
    }
};

} // namespace

TEST(MemSys, DenseLoadDeliversOrderedVectors)
{
    AgCfg cfg;
    cfg.mode = AgMode::kDenseLoad;
    CounterCfg rows;
    rows.max = 4;
    cfg.chain.ctrs = {rows};
    cfg.wordsPerCmd = 32; // two vectors per command
    StageCfg st;
    st.op = FuOp::kIMul;
    st.a = Operand::ctr(0);
    st.b = Operand::immInt(32);
    st.dstReg = 0;
    cfg.addrStages = {st};
    cfg.addrReg = 0;
    cfg.dataVecOut = 0;
    AgHarness h(cfg);

    h.mem.dram().reserve(4 * 32 * 4 + 64);
    for (uint32_t w = 0; w < 128; ++w)
        h.mem.dram().writeWord(w * 4, w * 10);

    std::vector<Word> got;
    for (int c = 0; c < 2000 && got.size() < 128; ++c) {
        h.step();
        while (h.out->canPop()) {
            const Vec &v = h.out->front();
            for (uint32_t l = 0; l < 16; ++l) {
                if (v.valid(l))
                    got.push_back(v.lane[l]);
            }
            h.out->pop();
        }
    }
    ASSERT_EQ(got.size(), 128u);
    for (uint32_t w = 0; w < 128; ++w)
        EXPECT_EQ(got[w], w * 10) << "word " << w << " out of order";
}

TEST(MemSys, DenseStoreWritesImage)
{
    AgCfg cfg;
    cfg.mode = AgMode::kDenseStore;
    CounterCfg rows;
    rows.max = 3;
    rows.step = 16;
    rows.max = 48;
    cfg.chain.ctrs = {rows};
    StageCfg st;
    st.op = FuOp::kNop;
    st.a = Operand::ctr(0);
    st.dstReg = 0;
    cfg.addrStages = {st};
    cfg.addrReg = 0;
    cfg.dataVecIn = 0;
    AgHarness h(cfg);

    h.mem.dram().reserve(48 * 4);
    for (int i = 0; i < 3; ++i) {
        Vec v;
        for (uint32_t l = 0; l < 16; ++l) {
            v.lane[l] = 1000 + i * 16 + l;
            v.setValid(l);
        }
        h.dataIn->push(v);
    }
    for (int c = 0; c < 2000 && h.ag->busy() + 1 > 0 && c < 500; ++c)
        h.step();
    for (uint32_t w = 0; w < 48; ++w)
        EXPECT_EQ(h.mem.dram().readWord(w * 4), 1000 + w);
    EXPECT_EQ(h.mem.stats().bytesWritten, 48u * 4);
}

/** A dense command past the DRAM image latches the bound address fault
 *  and is dropped: the image keeps its size, where it used to grow to
 *  fit the command. */
TEST(MemSys, DenseStorePastImageLatchesAddressFault)
{
    AgCfg cfg;
    cfg.mode = AgMode::kDenseStore;
    CounterCfg rows;
    rows.step = 16;
    rows.max = 48;
    cfg.chain.ctrs = {rows};
    StageCfg st;
    st.op = FuOp::kNop;
    st.a = Operand::ctr(0);
    st.dstReg = 0;
    cfg.addrStages = {st};
    cfg.addrReg = 0;
    cfg.dataVecIn = 0;
    AgHarness h(cfg);
    std::string fault;
    h.mem.bindAddressFault(&fault);

    h.mem.dram().reserve(32 * 4); // the first two of three commands
    for (int i = 0; i < 3; ++i) {
        Vec v;
        for (uint32_t l = 0; l < 16; ++l) {
            v.lane[l] = 1000 + i * 16 + l;
            v.setValid(l);
        }
        h.dataIn->push(v);
    }
    for (int c = 0; c < 500 && fault.empty(); ++c)
        h.step();
    EXPECT_EQ(fault, "dense store at byte 128 past the DRAM image (128 "
                     "bytes)");
    EXPECT_EQ(h.mem.dram().sizeBytes(), 128u);
    EXPECT_EQ(h.mem.stats().bytesWritten, 32u * 4);
}

TEST(MemSys, GatherMergesSameLineLanes)
{
    AgCfg cfg;
    cfg.mode = AgMode::kSparseLoad;
    CounterCfg cc;
    cc.vectorized = true;
    cc.max = 16;
    cfg.chain.ctrs = {cc};
    cfg.addrVecIn = 0;
    cfg.dataVecOut = 0;
    AgHarness h(cfg);

    h.mem.dram().reserve(4096);
    for (uint32_t w = 0; w < 1024; ++w)
        h.mem.dram().writeWord(w * 4, w + 7);

    // All 16 lanes read from two 64 B lines -> heavy coalescing.
    Vec addrs;
    for (uint32_t l = 0; l < 16; ++l) {
        addrs.lane[l] = (l % 2) * 16 + (l / 2); // word indices
        addrs.setValid(l);
    }
    h.addrIn->push(addrs);
    std::vector<Word> got(16, 0);
    bool done = false;
    for (int c = 0; c < 2000 && !done; ++c) {
        h.step();
        if (h.out->canPop()) {
            const Vec &v = h.out->front();
            for (uint32_t l = 0; l < 16; ++l)
                got[l] = v.lane[l];
            h.out->pop();
            done = true;
        }
    }
    ASSERT_TRUE(done);
    for (uint32_t l = 0; l < 16; ++l)
        EXPECT_EQ(got[l], addrs.lane[l] + 7);
    // 16 lanes but only 2 distinct lines: 14 lanes coalesced.
    EXPECT_EQ(h.mem.stats().coalescedLanes, 14u);
    EXPECT_EQ(h.mem.stats().bursts, 2u);
}

TEST(MemSys, ScatterWritesMaskedLanes)
{
    AgCfg cfg;
    cfg.mode = AgMode::kSparseStore;
    CounterCfg cc;
    cc.vectorized = true;
    cc.max = 16;
    cfg.chain.ctrs = {cc};
    cfg.addrVecIn = 0;
    cfg.dataVecIn = 1;
    AgHarness h(cfg);
    h.dataIn = nullptr; // rebuild: data on port 1
    auto data = std::make_unique<VectorStream>("d", 1, 8);
    h.ag->ports.vecIn[1].stream = data.get();

    h.mem.dram().reserve(4096);
    Vec addrs, vals;
    for (uint32_t l = 0; l < 16; ++l) {
        addrs.lane[l] = 100 + l * 3;
        vals.lane[l] = 5000 + l;
        if (l != 5) {
            addrs.setValid(l);
            vals.setValid(l);
        }
    }
    h.addrIn->push(addrs);
    data->push(vals);
    for (int c = 0; c < 500; ++c) {
        h.step();
        data->commit(h.now - 1);
    }
    for (uint32_t l = 0; l < 16; ++l) {
        Word w = h.mem.dram().readWord((100 + l * 3) * 4);
        if (l == 5)
            EXPECT_EQ(w, 0u) << "masked lane must not write";
        else
            EXPECT_EQ(w, 5000 + l);
    }
}

TEST(MemSys, OutstandingLimitThrottlesButCompletes)
{
    ArchParams p;
    p.coalescerMaxOutstanding = 4;
    MemSystem mem(p);
    AgCfg cfg;
    cfg.mode = AgMode::kDenseLoad;
    CounterCfg rows;
    rows.max = 32;
    cfg.chain.ctrs = {rows};
    cfg.wordsPerCmd = 16;
    StageCfg st;
    st.op = FuOp::kIMul;
    st.a = Operand::ctr(0);
    st.b = Operand::immInt(16);
    st.dstReg = 0;
    cfg.addrStages = {st};
    cfg.addrReg = 0;
    cfg.dataVecOut = 0;
    cfg.used = true;
    AgSim ag(p, 0, cfg, mem);
    VectorStream out("o", 1, 64);
    ag.ports.vecOut[0].sinks.push_back(&out);
    mem.dram().reserve(32 * 64 + 64);
    Cycles now = 0;
    size_t vecs = 0;
    for (int c = 0; c < 20000 && vecs < 32; ++c) {
        ag.step(now);
        mem.step(now);
        out.commit(now);
        ++now;
        while (out.canPop()) {
            out.pop();
            ++vecs;
        }
    }
    EXPECT_EQ(vecs, 32u);
}

TEST(MemSys, TinyCoalescingCacheStillCompletesGathers)
{
    // One merge entry cannot hold a 16-line vector at once: the AG
    // must trickle lanes through (partial acceptance) and still
    // deliver a correct, in-order result.
    ArchParams p;
    p.coalescerCacheLines = 1;
    p.coalescerMaxOutstanding = 2;
    MemSystem mem(p);
    AgCfg cfg;
    cfg.used = true;
    cfg.mode = AgMode::kSparseLoad;
    CounterCfg cc;
    cc.vectorized = true;
    cc.max = 32;
    cfg.chain.ctrs = {cc};
    cfg.addrVecIn = 0;
    cfg.dataVecOut = 0;
    AgSim ag(p, 0, cfg, mem);
    VectorStream addrs("a", 1, 8), out("o", 1, 8);
    ag.ports.vecIn[0].stream = &addrs;
    ag.ports.vecOut[0].sinks.push_back(&out);

    mem.dram().reserve(1 << 16);
    for (uint32_t w = 0; w < 4096; ++w)
        mem.dram().writeWord(w * 4, w ^ 0x5a);

    // Two vectors of widely scattered addresses (all distinct lines).
    for (int v = 0; v < 2; ++v) {
        Vec a;
        for (uint32_t l = 0; l < 16; ++l) {
            a.lane[l] = (v * 16 + l) * 64; // word idx, distinct lines
            a.setValid(l);
        }
        addrs.push(a);
    }
    std::vector<Vec> got;
    Cycles now = 0;
    while (got.size() < 2 && now < 200000) {
        ag.step(now);
        mem.step(now);
        addrs.commit(now);
        out.commit(now);
        ++now;
        while (out.canPop()) {
            got.push_back(out.front());
            out.pop();
        }
    }
    ASSERT_EQ(got.size(), 2u) << "starved under a tiny cache";
    for (int v = 0; v < 2; ++v) {
        for (uint32_t l = 0; l < 16; ++l)
            EXPECT_EQ(got[v].lane[l],
                      static_cast<Word>(((v * 16 + l) * 64) ^ 0x5a));
    }
}

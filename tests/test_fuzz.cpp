/** @file Fuzzing subsystem: generator validity, differential soak,
 *  injected-fault detection and shrinking, seed-file round trips, and
 *  deterministic replay of the committed corpus. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hpp"
#include "base/rng.hpp"
#include "compiler/mapper.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/shrink.hpp"
#include "pir/builder.hpp"
#include "pir/serialize.hpp"
#include "pir/validate.hpp"

using namespace plast;
using namespace plast::fuzz;
using namespace plast::pir;

namespace
{

/** A known-good two-kernel program: a droppable store-only kernel plus
 *  a cross-lane fold kernel the canned fault corrupts. The shrinker
 *  should strip it down to (root + fold leaf). */
FuzzCase
injectedCase()
{
    Builder b("inj");
    NodeId root = b.outer("root", CtrlScheme::kSequential, {}, kNone);

    // Kernel 0: stores into an SRAM nobody reads; fault-irrelevant.
    NodeId w0 = b.outer("kernel0", CtrlScheme::kSequential,
                        {b.ctr("w0", 0, 1)}, root);
    MemId scratch = b.sram("s0", 64);
    CtrId j = b.ctr("j", 0, 64, 1, true);
    b.compute("noise", w0, {j}, {}, {},
              {Builder::storeSram(scratch, b.ctrE(j), b.ctrE(j))});

    // Kernel 1: stream fold -> argOut; exercises a reduce tree.
    NodeId w1 = b.outer("kernel1", CtrlScheme::kSequential,
                        {b.ctr("w1", 0, 1)}, root);
    MemId fin = b.dram("fin0", 256);
    int32_t out = b.argOut();
    CtrId i = b.ctr("i", 0, 256, 1, true);
    b.compute("fold", w1, {i}, {StreamIn{fin, b.ctrE(i)}}, {},
              {Builder::fold(FuOp::kFAdd, b.streamRef(0), i, out)});

    FuzzCase c;
    c.prog = b.finish(root);
    c.params = ArchParams::plasticineFinal();
    c.inject = true;
    return c;
}

} // namespace

TEST(Fuzz, GeneratedProgramsValidate)
{
    setVerbose(false);
    for (uint64_t s = 1; s <= 40; ++s) {
        FuzzCase c = caseForSeed(s);
        auto errs = validateProgram(c.prog);
        EXPECT_TRUE(errs.empty())
            << "seed " << s << ": " << errs.front();
        // The sampler must stay inside the legal design space.
        EXPECT_GE(c.params.gridCols, 12u);
        EXPECT_LE(c.params.gridCols, 16u);
        EXPECT_GE(c.params.pcu.stages, 6u);
        EXPECT_EQ(c.params.pcu.lanes, 16u);
        EXPECT_EQ(c.params.pmu.fifoDepth, c.params.pcu.fifoDepth);
    }
}

TEST(Fuzz, CasesAreDeterministicPerSeed)
{
    FuzzCase a = caseForSeed(42), b = caseForSeed(42);
    EXPECT_EQ(programToText(a.prog), programToText(b.prog));
    EXPECT_EQ(a.params.gridCols, b.params.gridCols);
    EXPECT_EQ(a.params.gridRows, b.params.gridRows);
    EXPECT_EQ(a.params.pmu.bankKilobytes, b.params.pmu.bankKilobytes);
    EXPECT_EQ(a.params.numAgs, b.params.numAgs);
}

TEST(Fuzz, SerializeRoundTripIsFixpoint)
{
    // write -> read -> write reproduces the exact text, and the parsed
    // program is itself valid.
    for (uint64_t s = 1; s <= 30; ++s) {
        FuzzCase c = caseForSeed(s);
        std::string t1 = programToText(c.prog);
        std::istringstream is(t1);
        Program back;
        std::string err;
        ASSERT_TRUE(readProgram(is, back, &err))
            << "seed " << s << ": " << err;
        EXPECT_TRUE(validateProgram(back).empty()) << "seed " << s;
        EXPECT_EQ(programToText(back), t1) << "seed " << s;
    }
}

TEST(Fuzz, SeedFileRoundTrip)
{
    FuzzCase c = caseForSeed(9, /*inject=*/true);
    std::ostringstream os;
    writeSeedFile(os, c);
    std::istringstream is(os.str());
    FuzzCase back;
    std::string err;
    ASSERT_TRUE(readSeedFile(is, back, &err)) << err;
    EXPECT_TRUE(back.inject);
    EXPECT_EQ(back.params.gridCols, c.params.gridCols);
    EXPECT_EQ(back.params.gridRows, c.params.gridRows);
    EXPECT_EQ(back.params.pcu.stages, c.params.pcu.stages);
    EXPECT_EQ(back.params.pcu.fifoDepth, c.params.pcu.fifoDepth);
    EXPECT_EQ(back.params.pmu.bankKilobytes, c.params.pmu.bankKilobytes);
    EXPECT_EQ(back.params.dram.channels, c.params.dram.channels);
    EXPECT_EQ(back.params.vectorTracks, c.params.vectorTracks);
    EXPECT_EQ(back.params.numAgs, c.params.numAgs);
    EXPECT_EQ(back.params.coalescerMaxOutstanding,
              c.params.coalescerMaxOutstanding);
    EXPECT_EQ(programToText(back.prog), programToText(c.prog));
}

TEST(Fuzz, SeedFileCarriesOutstandingBudget)
{
    FuzzCase c = caseForSeed(9);
    c.params.coalescerMaxOutstanding = 3;
    std::ostringstream os;
    writeSeedFile(os, c);
    std::string text = os.str();

    FuzzCase back;
    std::string err;
    std::istringstream is(text);
    ASSERT_TRUE(readSeedFile(is, back, &err)) << err;
    EXPECT_EQ(back.params.coalescerMaxOutstanding, 3u);

    // Without the 11th field (every seed written before the fuzzer
    // varied the budget) the file replays at the default of 64.
    size_t arch = text.find("\narch ");
    ASSERT_NE(arch, std::string::npos);
    size_t eol = text.find('\n', arch + 1);
    size_t last = text.rfind(' ', eol);
    std::string legacy = text.substr(0, last) + text.substr(eol);
    std::istringstream lis(legacy);
    ASSERT_TRUE(readSeedFile(lis, back, &err)) << err;
    EXPECT_EQ(back.params.coalescerMaxOutstanding, 64u);
    EXPECT_EQ(programToText(back.prog), programToText(c.prog));

    // A malformed budget is a read error, not a silent default; a zero
    // budget reads, and the compile rejects it naming the field.
    std::string t = text.substr(0, last) + " x" + text.substr(eol);
    std::istringstream bis(t);
    EXPECT_FALSE(readSeedFile(bis, back, &err));
    t = text.substr(0, last) + " 0" + text.substr(eol);
    std::istringstream zis(t);
    ASSERT_TRUE(readSeedFile(zis, back, &err)) << err;
    compiler::MapResult res = compiler::compileProgram(back.prog, back.params);
    EXPECT_FALSE(res.report.ok);
    EXPECT_EQ(res.report.diag.binding, "coalescerMaxOutstanding");
}

TEST(Fuzz, SamplerReachesSmallBudgetsAndOffGridRows)
{
    std::set<uint32_t> budgets;
    bool offGridRow = false;
    for (uint64_t s = 1; s <= 80; ++s) {
        FuzzCase c = caseForSeed(s);
        budgets.insert(c.params.coalescerMaxOutstanding);
        for (const MemDecl &m : c.prog.mems)
            offGridRow |= m.kind == MemKind::kSram && m.name[0] == 't' &&
                          m.sizeWords % 16 != 0;
    }
    EXPECT_EQ(budgets, (std::set<uint32_t>{2, 3, 64}));
    EXPECT_TRUE(offGridRow) << "tile rows of 16k + {2, 9} words";
}

TEST(Fuzz, SoakFindsNoMismatches)
{
    // A bounded differential soak: evaluator vs fabric (both
    // schedulers), cycle ledger checked on every unit of every run.
    setVerbose(false);
    FuzzOptions o;
    o.seed = 1;
    o.runs = 40;
    o.shrink = false;
    FuzzStats st = plast::fuzz::fuzz(o);
    EXPECT_EQ(st.executed, 40u);
    EXPECT_EQ(st.mismatches, 0u)
        << (st.details.empty() ? "" : st.details.front());
    EXPECT_EQ(st.okRuns + st.unmappable, st.executed);
    // The generator must mostly produce mappable programs.
    EXPECT_GE(st.okRuns, 30u);
}

TEST(Fuzz, OversizeCasesSpillAndValidate)
{
    // Oversize cases pair row tiles of 96-192 vectors with scratchpads
    // of 16 banks x 1 or 2 KB: a metapipelined tiled map's three
    // N-buffers overflow, and the case maps by capacity spilling when
    // its nbufMin floor fits and is diagnosed when it does not. A
    // spilled design must validate bit-exactly.
    setVerbose(false);
    uint32_t spilled = 0, floorDiagnosed = 0;
    for (uint64_t s = 1; s <= 200; ++s) {
        DiffResult d = runOversizeCase(oversizeCaseForSeed(s));
        EXPECT_TRUE(d.ok()) << "seed " << s << ": " << d.detail;
        spilled += d.detail.rfind("spilled", 0) == 0;
        floorDiagnosed += d.detail == "diagnosed (pmu.scratchpad)";
    }
    EXPECT_GE(spilled, 1u);
    EXPECT_GE(floorDiagnosed, 1u);
}

TEST(Fuzz, InjectedFaultIsCaughtAndShrinks)
{
    setVerbose(false);
    FuzzCase c = injectedCase();

    // Healthy run passes...
    FuzzCase clean = c;
    clean.inject = false;
    EXPECT_TRUE(runCase(clean).ok());

    // ...the corrupted reduce tree is caught...
    DiffResult d = runCase(c);
    ASSERT_TRUE(d.mismatch()) << d.detail;
    EXPECT_NE(d.detail.find("argOut"), std::string::npos) << d.detail;

    // ...and shrinks to a minimal reproducer (root + fold leaf at
    // most a wrapper more), which still validates and still fails.
    auto stillFails = [&](const Program &cand) {
        FuzzCase probe{cand, c.params, true};
        return runCase(probe).mismatch();
    };
    ShrinkResult sr = shrinkProgram(c.prog, stillFails);
    EXPECT_GT(sr.accepted, 0);
    EXPECT_LE(sr.prog.nodes.size(), 3u);
    EXPECT_TRUE(validateProgram(sr.prog).empty());
    EXPECT_TRUE(stillFails(sr.prog));
}

TEST(Fuzz, InjectionSweepDetectsFaults)
{
    // Most generated programs contain a cross-lane fold, so the canned
    // fault must be observable on a fixed seed sweep.
    setVerbose(false);
    FuzzOptions o;
    o.seed = 7;
    o.runs = 5;
    o.inject = true;
    o.shrink = false;
    FuzzStats st = plast::fuzz::fuzz(o);
    EXPECT_GE(st.mismatches, 1u);
}

TEST(Fuzz, NonCombinerFoldOpIsInvalidNotAPanic)
{
    // clean_seed_3's second sink is a kFold; its fold op is the
    // seventh field. Out of the FuOp range the reader rejects it; fexp
    // (35) parses but has no reduction identity, so validation does.
    std::ifstream f(PLAST_CORPUS_DIR "/clean_seed_3.pir");
    ASSERT_TRUE(f) << "no corpus under " PLAST_CORPUS_DIR;
    std::stringstream text;
    text << f.rdbuf();
    std::string t = text.str();
    size_t line = t.find("\nsink ", t.find("\nsink ") + 1);
    ASSERT_NE(line, std::string::npos);
    size_t at = line + 1;
    for (int field = 0; field < 7; ++field)
        at = t.find(' ', at) + 1;
    size_t len = t.find(' ', at) - at;
    ASSERT_EQ(t.substr(at, len), "1"); // iadd
    for (const char *op : {"99", "-3", "35"}) {
        std::string path = ::testing::TempDir() + "fold_op_" + op + ".pir";
        std::ofstream(path) << t.substr(0, at) + op + t.substr(at + len);
        DiffResult d = replayFile(path);
        EXPECT_EQ(static_cast<int>(d.status),
                  static_cast<int>(DiffResult::Status::kInvalid))
            << op << ": " << d.detail;
        EXPECT_FALSE(d.detail.empty()) << op;
        std::remove(path.c_str());
    }
}

TEST(Fuzz, UnusableArchHeadersReplayTyped)
{
    // Seed headers the compiler cannot index or run (no DRAM channel, a
    // grid past 16-bit unit indices, an empty DRAM command queue) come
    // back as typed verdicts naming the field, and a signed field fails
    // to read; none may crash or hang.
    std::ifstream f(PLAST_CORPUS_DIR "/clean_seed_3.pir");
    ASSERT_TRUE(f) << "no corpus under " PLAST_CORPUS_DIR;
    std::stringstream text;
    text << f.rdbuf();
    std::string t = text.str();
    const std::string arch = "arch 16 8 8 16 8 4 16 4 6 16";
    size_t at = t.find(arch);
    ASSERT_NE(at, std::string::npos);
    for (auto [header, expect] :
         {std::pair{"arch 16 8 8 16 8 0 16 4 6 16", "dram.channels"},
          {"arch 4000 4000 8 16 8 4 16 4 6 16", "grid"},
         {"arch 16 8 8 16 8 4 0 4 6 16", "dram.queueDepth"},
          {"arch -1 8 8 16 8 4 16 4 6 16", "bad 'arch' field '-1'"}}) {
        std::string path = ::testing::TempDir() + "arch_header.pir";
        std::ofstream(path) << t.substr(0, at) + header +
                                   t.substr(at + arch.size());
        DiffResult d = replayFile(path);
        EXPECT_FALSE(d.ok()) << header;
        EXPECT_FALSE(d.mismatch()) << header << ": " << d.detail;
        EXPECT_NE(d.detail.find(expect), std::string::npos)
            << header << ": " << d.detail;
        std::remove(path.c_str());
    }
}

TEST(Fuzz, CorpusReplaysDeterministically)
{
    setVerbose(false);
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(PLAST_CORPUS_DIR))
        if (e.path().extension() == ".pir")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty()) << "no corpus under " PLAST_CORPUS_DIR;

    for (const std::string &f : files) {
        std::ifstream is(f);
        FuzzCase c;
        std::string err;
        ASSERT_TRUE(readSeedFile(is, c, &err)) << f << ": " << err;
        DiffResult a = replayFile(f);
        DiffResult b = replayFile(f);
        // Bit-for-bit deterministic outcome...
        EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status))
            << f;
        EXPECT_EQ(a.detail, b.detail) << f;
        EXPECT_EQ(a.cycles, b.cycles) << f;
        // ...matching the recorded expectation: injected seeds are
        // regression witnesses (must still fail), clean seeds must run
        // mismatch-free.
        if (c.inject)
            EXPECT_TRUE(a.mismatch()) << f << ": " << a.detail;
        else
            EXPECT_TRUE(a.ok()) << f << ": " << a.detail;
    }
}

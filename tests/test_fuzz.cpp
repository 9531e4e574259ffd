/** @file Fuzzing subsystem: generator validity, differential soak,
 *  injected-fault detection and shrinking, seed-file round trips, and
 *  deterministic replay of the committed corpus. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cfgio.hpp"
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
    // The whole case comes back: every ArchParams field, the program,
    // the fault mode and the oversize flag. Nothing is simulated.
    auto roundTrip = [](const FuzzCase &c, const std::string &what) {
        std::ostringstream os;
        writeSeedFile(os, c);
        std::istringstream is(os.str());
        FuzzCase back;
        std::string err;
        ASSERT_TRUE(readSeedFile(is, back, &err)) << what << ": " << err;
        EXPECT_EQ(archParamsText(back.params), archParamsText(c.params))
            << what;
        EXPECT_EQ(programToText(back.prog), programToText(c.prog)) << what;
        EXPECT_EQ(back.inject, c.inject) << what;
        EXPECT_EQ(back.expectDiagnosed, c.expectDiagnosed) << what;
    };
    for (uint64_t s = 1; s <= 300; ++s) {
        for (uint32_t inject = 0; inject <= 3; ++inject)
            roundTrip(caseForSeed(s, inject),
                      strfmt("seed %llu inject %u",
                             static_cast<unsigned long long>(s), inject));
        roundTrip(oversizeCaseForSeed(s),
                  strfmt("oversize seed %llu",
                         static_cast<unsigned long long>(s)));
    }
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

    // The budget is the params line's fifth field. A malformed budget
    // is a read error naming the line, not a silent default; a zero
    // budget reads, and the compile rejects it naming the field.
    size_t at = text.find("\nparams ");
    ASSERT_NE(at, std::string::npos);
    for (int field = 0; field < 5; ++field)
        at = text.find(' ', at) + 1;
    size_t len = text.find(' ', at) - at;
    ASSERT_EQ(text.substr(at, len), "3");
    std::string t = text.substr(0, at) + "x" + text.substr(at + len);
    std::istringstream bis(t);
    EXPECT_FALSE(readSeedFile(bis, back, &err));
    EXPECT_EQ(err, "params: bad number 'x'");
    t = text.substr(0, at) + "0" + text.substr(at + len);
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
    // engines), cycle ledger checked on every unit of every run.
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

TEST(Fuzz, SavedReproducersReplayToTheirNote)
{
    // A saved reproducer holds the shrunk program, so its note must be
    // that program's mismatch, not the unshrunk case's.
    setVerbose(false);
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "fuzz_saved";
    fs::remove_all(dir);
    fs::create_directories(dir);
    FuzzOptions o;
    o.seed = 1;
    o.runs = 4;
    o.inject = 1;
    o.saveDir = dir.string();
    FuzzStats st = plast::fuzz::fuzz(o);
    ASSERT_GE(st.savedFiles.size(), 2u);
    for (const std::string &f : st.savedFiles) {
        std::ifstream in(f);
        std::string note;
        ASSERT_TRUE(std::getline(in, note)) << f;
        DiffResult d = replayFile(f);
        EXPECT_TRUE(d.mismatch()) << f << ": " << d.detail;
        EXPECT_EQ(note, "# detail: " + d.detail) << f;
    }
    fs::remove_all(dir);
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
    // Params lines the compiler cannot index or run (no DRAM channel, a
    // grid past 16-bit unit indices, an empty DRAM command queue) come
    // back as typed verdicts naming the field, and a signed field or
    // the old positional `arch` header fails to read; none may crash
    // or hang.
    std::ifstream f(PLAST_CORPUS_DIR "/clean_seed_3.pir");
    ASSERT_TRUE(f) << "no corpus under " PLAST_CORPUS_DIR;
    std::stringstream text;
    text << f.rdbuf();
    std::string t = text.str();
    const std::string params = "params 16 8 16 32 64 4 6 32\n"
                               "pcu_params 16 8 6 6 5 3 3 4 16\n"
                               "pmu_params 16 8 4 6 4 0 3 1 0\n"
                               "dram_params 4 8 8192 14 14 14 35 5 16 0\n";
    size_t at = t.find(params);
    ASSERT_NE(at, std::string::npos);
    auto with = [&](const char *line, const char *by) {
        std::string p = params;
        p.replace(p.find(line), std::strlen(line), by);
        return p;
    };
    for (auto [header, expect] :
         {std::pair{with("dram_params 4 ", "dram_params 0 "),
                    std::string("dram.channels")},
          {with("params 16 8 ", "params 4000 4000 "), "grid"},
          {with(" 5 16 0\n", " 5 0 0\n"), "dram.queueDepth"},
          {with("params 16 ", "params -1 "), "params: bad number '-1'"},
          {std::string("arch 16 8 8 16 8 4 16 4 6 16\n"),
           "expected 'params', got 'arch'"}}) {
        std::string path = ::testing::TempDir() + "arch_header.pir";
        std::ofstream(path) << t.substr(0, at) + header +
                                   t.substr(at + params.size());
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
        std::ifstream in(f);
        std::stringstream text;
        text << in.rdbuf();
        std::istringstream is(text.str());
        FuzzCase c;
        std::string err;
        ASSERT_TRUE(readSeedFile(is, c, &err)) << f << ": " << err;
        // Read -> write is a byte fixpoint: past its leading '#' notes
        // (a shrunk seed's mismatch detail, a curator's comment), the
        // file is exactly what writeSeedFile writes for it.
        std::ostringstream os;
        writeSeedFile(os, c);
        const std::string file = text.str(), written = os.str();
        size_t notes = file.size() - std::min(file.size(), written.size());
        EXPECT_EQ(file.substr(notes), written) << f;
        std::istringstream ns(file.substr(0, notes));
        for (std::string line; std::getline(ns, line);)
            EXPECT_EQ(line.rfind('#', 0), 0u) << f << ": " << line;
        DiffResult a = replayFile(f);
        DiffResult b = replayFile(f);
        // Bit-for-bit deterministic outcome...
        EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status))
            << f;
        EXPECT_EQ(a.detail, b.detail) << f;
        EXPECT_EQ(a.cycles, b.cycles) << f;
        // ...matching the recorded expectation: injected seeds are
        // regression witnesses (must still fail, with the mismatch
        // their note records), clean seeds must run mismatch-free.
        if (c.inject) {
            EXPECT_TRUE(a.mismatch()) << f << ": " << a.detail;
            EXPECT_EQ(file.substr(0, file.find('\n')),
                      "# detail: " + a.detail)
                << f;
        } else {
            EXPECT_TRUE(a.ok()) << f << ": " << a.detail;
        }
    }
}

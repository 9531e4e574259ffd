/** @file The text formats' bytes and readers. Writer bytes are cache
 *  keys (pirHash, configHash, store records, job logs), so they are
 *  pinned by hash; the readers take outside bytes, so seeded mutants
 *  of real documents must parse to a write -> read -> write fixpoint
 *  or fail with a message, never crash. */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "arch/cfgio.hpp"
#include "base/logging.hpp"
#include "base/rng.hpp"
#include "base/textio.hpp"
#include "compiler/mapper.hpp"
#include "fuzz/harness.hpp"
#include "pir/serialize.hpp"
#include "runtime/manifest.hpp"
#include "serve/server.hpp"

using namespace plast;

namespace
{

/** Token spans outside '#' comments. */
std::vector<std::pair<size_t, size_t>>
tokenSpans(const std::string &t)
{
    std::vector<std::pair<size_t, size_t>> out;
    bool comment = false;
    for (size_t i = 0; i < t.size();) {
        if (std::isspace(static_cast<unsigned char>(t[i]))) {
            comment = comment && t[i] != '\n';
            ++i;
            continue;
        }
        size_t j = i;
        while (j < t.size() && !std::isspace(static_cast<unsigned char>(t[j])))
            ++j;
        comment = comment || t[i] == '#';
        if (!comment)
            out.push_back({i, j - i});
        i = j;
    }
    return out;
}

/** One seeded single-token mutant: a digit flip, a dropped or
 *  duplicated token, or a number pushed out of its (enum) range. */
std::string
mutant(const std::string &t, Rng &rng)
{
    static const char *kFar[] = {"99", "-3", "200", "-1", "65536", "44"};
    auto spans = tokenSpans(t);
    for (;;) {
        auto [at, len] = spans[rng.nextBounded(spans.size())];
        std::string tok = t.substr(at, len);
        switch (rng.nextBounded(4)) {
          case 0: {
            size_t p = rng.nextBounded(tok.size());
            if (!std::isdigit(static_cast<unsigned char>(tok[p])))
                continue;
            tok[p] = static_cast<char>('0' + (tok[p] - '0' + 1 +
                                              rng.nextBounded(9)) % 10);
            break;
          }
          case 1:
            tok.clear();
            break;
          case 2:
            tok += ' ' + tok;
            break;
          default:
            if (!std::isdigit(static_cast<unsigned char>(tok.back())))
                continue;
            tok = kFar[rng.nextBounded(6)];
        }
        return t.substr(0, at) + tok + t.substr(at + len);
    }
}

/** `read` parses a document and re-serializes it, or fails with a
 *  message. Every mutant must do one or the other, and what it
 *  re-serializes to must read back to the same bytes. */
void
expectMutantsTyped(
    const std::string &what, const std::string &text, uint64_t seed,
    const std::function<bool(const std::string &, std::string &,
                             std::string &)> &read)
{
    Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < 600; ++i) {
        std::string m = mutant(text, rng), t1, t2, err;
        if (!read(m, t1, err)) {
            EXPECT_FALSE(err.empty()) << what << " mutant " << i;
            continue;
        }
        ++accepted;
        ASSERT_TRUE(read(t1, t2, err)) << what << " mutant " << i << ": "
                                       << err;
        ASSERT_EQ(t1, t2) << what << " mutant " << i;
    }
    // Digit flips keep most documents well-formed.
    EXPECT_GT(accepted, 60) << what;
}

} // namespace

TEST(FormatBytes, WritersMatchPinnedHashes)
{
    // fnv1a64 of each writer's output. A change here re-keys every
    // cache entry, store record and job log. The program pins date from
    // before the writers moved onto the shared field walks
    // (base/textio.hpp); the config and arch pins were re-recorded when
    // the params walk dropped pmu.counters, pmu.fifoDepth and
    // dram.burstBytes, `fabriccfg` went to version 2 and the arch hash
    // moved onto the params walk. Every other config line was unchanged.
    const std::map<std::string, std::pair<uint64_t, uint64_t>> pins = {
        {"InnerProduct", {0x08f76d53ee6faf65, 0xe461c0496b31af6d}},
        {"OuterProduct", {0x185a05dda7f88e90, 0x7b2b85d4a3ebc5af}},
        {"BlackScholes", {0x9199efe0842f0ed4, 0xc53a187e12101462}},
        {"TPCHQ6", {0x4201a4fa29e663a9, 0x1512af79df55603a}},
        {"GEMM", {0xd18be577936d7493, 0xb3aef4f2cde86a44}},
        {"GDA", {0x3814f7c1711d3e3b, 0x2bf2036d3402f1b1}},
        {"LogReg", {0xdced1469e0dd4484, 0xbde7dd68f35b653b}},
        {"SGD", {0x63e2ed8ea894b83a, 0x5398a77a435e6b4f}},
        {"Kmeans", {0xb02b365aca3341b7, 0x9807ae618264fb8f}},
        {"CNN", {0x08683823d7f030ee, 0x212259e1ff8aeb56}},
        {"SMDV", {0xd93c174874372630, 0x76b3060ec153a085}},
        {"PageRank", {0x9b2357f8dff22287, 0x369ade5bd336e857}},
        {"BFS", {0xb10fac2348357270, 0x9ee4e0a6138f4df2}},
    };
    setVerbose(false);
    ASSERT_EQ(apps::allApps().size(), pins.size());
    for (const auto &spec : apps::allApps()) {
        apps::AppInstance inst = spec.make(apps::Scale::kTiny);
        ASSERT_TRUE(pins.count(inst.name)) << inst.name;
        auto [pirPin, cfgPin] = pins.at(inst.name);
        EXPECT_EQ(fnv1a64(pir::programToText(inst.prog)), pirPin)
            << inst.name;
        compiler::MapResult m = compiler::compileProgram(
            inst.prog, ArchParams::plasticineFinal());
        ASSERT_TRUE(m.report.ok) << inst.name << ": " << m.report.error;
        EXPECT_EQ(fnv1a64(configToText(m.fabric)), cfgPin) << inst.name;
    }
    EXPECT_EQ(fnv1a64(archParamsText(ArchParams::plasticineFinal())),
              0xff9d7b8a21336b8cu);
}

TEST(FormatBytes, EveryArchParamsFieldIsWrittenReadAndHashed)
{
    // Add 1 to each number of the params walk in turn (the two ecc
    // bools are 0, so they flip): the text must read back through the
    // walk, rewrite to itself and change hashArch. Every field is a
    // token here, so this shows all 36 are written, read and hashed.
    const ArchParams fin = ArchParams::plasticineFinal();
    const std::string base = archParamsText(fin);
    size_t numbers = 0;
    for (auto [at, len] : tokenSpans(base)) {
        uint64_t v = 0;
        if (!parseNumber(std::string_view(base).substr(at, len), v))
            continue;
        ++numbers;
        std::string text = base.substr(0, at) + std::to_string(v + 1) +
                           base.substr(at + len);
        std::istringstream is(text);
        TextReader ar(is);
        ArchParams p;
        paramsFields(ar, p);
        ASSERT_TRUE(ar.ok()) << "token at " << at << ": " << ar.error();
        EXPECT_EQ(archParamsText(p), text) << "token at " << at;
        EXPECT_NE(serve::hashArch(p), serve::hashArch(fin))
            << "token at " << at;
    }
    EXPECT_EQ(numbers, 36u);
}

TEST(FormatMutants, PcfgMutantsRoundTripOrFailTyped)
{
    setVerbose(false);
    compiler::MapResult m = compiler::compileProgram(
        apps::makeInnerProduct(apps::Scale::kTiny).prog,
        ArchParams::plasticineFinal());
    ASSERT_TRUE(m.report.ok) << m.report.error;
    expectMutantsTyped(
        "pcfg", configToText(m.fabric), 1,
        [](const std::string &in, std::string &out, std::string &err) {
            std::istringstream is(in);
            FabricConfig cfg;
            if (!readConfig(is, cfg, &err))
                return false;
            out = configToText(cfg);
            return true;
        });
}

TEST(FormatMutants, PirMutantsRoundTripOrFailTyped)
{
    expectMutantsTyped(
        "pir",
        pir::programToText(apps::makeInnerProduct(apps::Scale::kTiny).prog),
        2, [](const std::string &in, std::string &out, std::string &err) {
            std::istringstream is(in);
            pir::Program prog;
            if (!pir::readProgram(is, prog, &err))
                return false;
            out = pir::programToText(prog);
            return true;
        });
}

TEST(FormatMutants, SeedFileMutantsRoundTripOrFailTyped)
{
    std::ifstream f(PLAST_CORPUS_DIR "/clean_seed_3.pir");
    ASSERT_TRUE(f) << "no corpus under " PLAST_CORPUS_DIR;
    std::stringstream text;
    text << f.rdbuf();
    expectMutantsTyped(
        "seed file", text.str(), 3,
        [](const std::string &in, std::string &out, std::string &err) {
            std::istringstream is(in);
            fuzz::FuzzCase c;
            if (!fuzz::readSeedFile(is, c, &err))
                return false;
            std::ostringstream os;
            fuzz::writeSeedFile(os, c);
            out = os.str();
            return true;
        });
}

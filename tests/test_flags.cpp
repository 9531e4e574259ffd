/**
 * @file
 * The command-line flag parser: every value kind, both value
 * spellings, positionals anywhere, --help, and each rejection class.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/flags.hpp"

using namespace plast;

namespace
{

enum class Mode { kFast, kSlow };

/** One tool's declarations over plain destinations. */
struct Tool
{
    bool quiet = false;
    bool cache = true;
    uint32_t workers = 4;
    uint64_t seed = 1;
    uint32_t inject = 0;
    double rate = 50.0;
    std::string log;
    Mode mode = Mode::kFast;
    std::vector<uint64_t> sweep;
    std::string app;
    std::vector<std::string> files;
    FlagSet flags{"tool", "[options] <app> [file ...]"};

    Tool()
    {
        flags.arg("app", app, "benchmark")
            .args("file", files, "inputs")
            .sw("quiet", quiet, "no report")
            .sw("no-cache", cache, "skip the cache", false)
            .num("workers", workers, "pool size", 1u, 64u)
            .num("seed", seed, "seed")
            .num("inject", inject, "fault mode", 0u, 3u)
            .implicit("1")
            .real("rate", rate, "events per Mcycle", HUGE_VAL, true)
            .str("log", log, "FILE", "job log")
            .word("mode", mode, {{"fast", Mode::kFast}, {"slow", Mode::kSlow}},
                  "engine")
            .nums("sweep", sweep, "deadlines");
    }

    Status
    parse(std::vector<const char *> args)
    {
        args.insert(args.begin(), "tool");
        return flags.tryParse(static_cast<int>(args.size()), args.data());
    }
};

/** The error message of parsing `args`, "" when it parsed. */
std::string
errorOf(std::vector<const char *> args)
{
    Tool t;
    Status st = t.parse(std::move(args));
    EXPECT_TRUE(st.ok() || st.code() == StatusCode::kInvalidArgument);
    return st.message();
}

} // namespace

TEST(Flags, EveryValueKindInBothSpellings)
{
    Tool t;
    ASSERT_TRUE(t.parse({"--quiet", "--no-cache", "--workers=8", "--seed",
                         "0x1f", "--inject", "--rate", "2.5", "--log=j.log",
                         "--mode", "slow", "--sweep=1,0,20", "GEMM"})
                    .ok());
    EXPECT_TRUE(t.quiet);
    EXPECT_FALSE(t.cache);
    EXPECT_EQ(t.workers, 8u);
    EXPECT_EQ(t.seed, 31u);
    EXPECT_EQ(t.inject, 1u);
    EXPECT_EQ(t.rate, 2.5);
    EXPECT_EQ(t.log, "j.log");
    EXPECT_EQ(t.mode, Mode::kSlow);
    EXPECT_EQ(t.sweep, (std::vector<uint64_t>{1, 0, 20}));
    EXPECT_EQ(t.app, "GEMM");
    EXPECT_TRUE(t.flags.given("workers"));
    EXPECT_TRUE(t.flags.given("quiet"));

    Tool u;
    ASSERT_TRUE(u.parse({"--workers", "2", "--seed=7", "--inject=3",
                         "--rate=1e3", "--log", "x", "--mode=fast", "GDA"})
                    .ok());
    EXPECT_EQ(u.workers, 2u);
    EXPECT_EQ(u.seed, 7u);
    EXPECT_EQ(u.inject, 3u);
    EXPECT_EQ(u.rate, 1000.0);
    EXPECT_EQ(u.log, "x");
    EXPECT_FALSE(u.flags.given("quiet"));
    // Decimal means decimal: a leading zero is not octal.
    Tool v;
    ASSERT_TRUE(v.parse({"--seed=010", "A"}).ok());
    EXPECT_EQ(v.seed, 10u);
}

TEST(Flags, PositionalsMaySitAnywhere)
{
    Tool t;
    ASSERT_TRUE(
        t.parse({"a.pir", "--quiet", "GEMM", "b.pir", "--workers=2", "c"})
            .ok());
    EXPECT_EQ(t.app, "a.pir");
    EXPECT_EQ(t.files, (std::vector<std::string>{"GEMM", "b.pir", "c"}));
    EXPECT_EQ(errorOf({"--quiet"}), "missing <app>");

    FlagSet two("cmp", "BASE CUR");
    std::string base, cur;
    two.arg("BASE", base, "baseline").arg("CUR", cur, "current");
    const char *argv[] = {"cmp", "a", "b", "c"};
    Status st = two.tryParse(4, argv);
    EXPECT_EQ(st.message(), "unexpected argument 'c'");
}

TEST(Flags, HelpWinsAndUsageComesFromTheDeclarations)
{
    Tool t;
    ASSERT_TRUE(t.parse({"--help"}).ok());
    EXPECT_TRUE(t.flags.given("help"));
    Tool h;
    ASSERT_TRUE(h.parse({"GEMM", "-h", "--bogus"}).ok());
    EXPECT_TRUE(h.flags.given("help"));

    std::string u = t.flags.usage();
    EXPECT_EQ(u.rfind("usage: tool [options] <app> [file ...]\n", 0), 0u)
        << u;
    for (const char *line :
         {"<app>", "<file> ...", "--quiet ", "--workers=N", "(default 4)",
          "--inject[=N]", "--rate=F", "(default 50)", "--log=FILE",
          "--mode=fast|slow", "(default fast)", "--sweep=N,N,...",
          "-h, --help"})
        EXPECT_NE(u.find(line), std::string::npos) << line << "\n" << u;
    // A zero default is left to the help line to explain.
    EXPECT_EQ(u.find("(default 0)"), std::string::npos) << u;
    for (size_t at = 0, nl; (nl = u.find('\n', at)) != std::string::npos;
         at = nl + 1)
        EXPECT_LE(nl - at, 79u) << u.substr(at, nl - at);
}

TEST(Flags, EachRejectionNamesTheFlag)
{
    // Unknown flags, in either dash form.
    EXPECT_EQ(errorOf({"A", "--bogus=1"}), "unknown flag '--bogus'");
    EXPECT_EQ(errorOf({"A", "-x"}), "unknown flag '-x'");
    EXPECT_EQ(errorOf({"A", "--time_tol=2"}), "unknown flag '--time_tol'");
    // Missing values: at the end, before another flag, or empty.
    EXPECT_EQ(errorOf({"A", "--log"}), "--log needs a value");
    EXPECT_EQ(errorOf({"A", "--workers", "--quiet"}),
              "--workers needs a value");
    EXPECT_EQ(errorOf({"A", "--log="}), "--log needs a value");
    // Switches are bare.
    EXPECT_EQ(errorOf({"A", "--quiet=1"}), "--quiet takes no value");
    // Malformed numbers.
    EXPECT_EQ(errorOf({"A", "--workers=abc"}),
              "--workers: 'abc' is not an unsigned number");
    EXPECT_EQ(errorOf({"A", "--workers=4x"}),
              "--workers: '4x' is not an unsigned number");
    EXPECT_EQ(errorOf({"A", "--workers= 4"}),
              "--workers: ' 4' is not an unsigned number");
    EXPECT_EQ(errorOf({"A", "--seed=0x"}),
              "--seed: '0x' is not an unsigned number");
    EXPECT_EQ(errorOf({"A", "--rate=abc"}),
              "--rate: 'abc' is not a finite number");
    EXPECT_EQ(errorOf({"A", "--rate=nan"}),
              "--rate: 'nan' is not a finite number");
    EXPECT_EQ(errorOf({"A", "--rate=1e999"}),
              "--rate: '1e999' is not a finite number");
    EXPECT_EQ(errorOf({"A", "--sweep=1,,2"}),
              "--sweep: '' is not an unsigned number");
    // An unsigned value never carries a sign.
    EXPECT_EQ(errorOf({"A", "--seed=-1"}),
              "--seed: '-1' is not an unsigned number");
    EXPECT_EQ(errorOf({"A", "--seed", "-1"}),
              "--seed: '-1' is not an unsigned number");
    EXPECT_EQ(errorOf({"A", "--seed=+1"}),
              "--seed: '+1' is not an unsigned number");
    EXPECT_EQ(errorOf({"A", "--sweep=1,-2"}),
              "--sweep: '-2' is not an unsigned number");
    // Out of the declared range, or of the destination's.
    EXPECT_EQ(errorOf({"A", "--workers=0"}),
              "--workers: 0 is out of range [1, 64]");
    EXPECT_EQ(errorOf({"A", "--workers=65"}),
              "--workers: 65 is out of range [1, 64]");
    EXPECT_EQ(errorOf({"A", "--inject=4"}),
              "--inject: 4 is out of range [0, 3]");
    EXPECT_EQ(errorOf({"A", "--seed=18446744073709551616"}),
              "--seed: 18446744073709551616 is out of range [0, "
              "18446744073709551615]");
    EXPECT_EQ(errorOf({"A", "--rate=0"}),
              "--rate: 0 is out of range (0, inf]");
    EXPECT_EQ(errorOf({"A", "--rate=-2"}),
              "--rate: -2 is out of range (0, inf]");
    // Unknown enum words.
    EXPECT_EQ(errorOf({"A", "--mode=dnese"}),
              "--mode: unknown word 'dnese' (one of fast|slow)");
}

TEST(Flags, ParseReportsUsageErrorsAsExitTwo)
{
    Tool t;
    const char *bad[] = {"tool", "--workers=-1"};
    testing::internal::CaptureStderr();
    std::optional<int> rc = t.flags.parse(2, const_cast<char **>(bad));
    std::string err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(rc.has_value());
    EXPECT_EQ(*rc, 2);
    EXPECT_EQ(err.rfind("tool: --workers: '-1' is not an unsigned number\n"
                        "usage: tool ",
                        0),
              0u)
        << err;

    Tool h;
    const char *help[] = {"tool", "--help"};
    testing::internal::CaptureStdout();
    rc = h.flags.parse(2, const_cast<char **>(help));
    std::string out = testing::internal::GetCapturedStdout();
    ASSERT_TRUE(rc.has_value());
    EXPECT_EQ(*rc, 0);
    EXPECT_EQ(out, h.flags.usage());

    Tool ok;
    const char *good[] = {"tool", "GEMM"};
    EXPECT_FALSE(ok.flags.parse(2, const_cast<char **>(good)).has_value());
}

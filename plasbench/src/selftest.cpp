/**
 * @file
 * Self-tests of the benchmark's own logic: percentile refusal, self
 * time on a synthetic span tree, and an output check that notices one
 * flipped word. Exit status 0 when every check holds.
 *
 *   plasbench_selftest
 */

#include <cmath>
#include <cstdio>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "check.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace plasbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
percentileRefusesThinTails()
{
    std::vector<double> v;
    for (int i = 1; i <= 999; ++i)
        v.push_back(i);
    expect(!percentile(v, 99), "p99 of 999 samples is refused");
    v.push_back(1000);
    std::optional<double> p99 = percentile(v, 99);
    expect(p99 && *p99 == 990, "p99 of 1000 samples is the 990th");
    expect(!percentile({1, 2, 3}, 50), "p50 of 3 samples is refused");
    expect(percentile(std::vector<double>(20, 7.0), 50) == 7.0,
           "p50 of 20 samples is reported");
    expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
           "median of odd and even counts");
}

Span
span(const char *name, uint64_t b, uint64_t e, int32_t parent)
{
    Span s;
    s.name = name;
    s.beginNs = b;
    s.endNs = e;
    s.parent = parent;
    return s;
}

void
selfTimeOnSyntheticTree()
{
    // root [0,100): children a [10,40) and b [30,60) overlap, c pokes
    // out past the root's end; a has a child [15,20).
    std::vector<Span> t = {
        span("root", 0, 100, -1), span("a", 10, 40, 0),
        span("b", 30, 60, 0),     span("c", 90, 120, 0),
        span("a", 15, 20, 1),     span("root", 200, 210, -1),
    };
    t[5].weight = 0.5;
    std::vector<double> self = selfSeconds(t);
    expect(near(self[0], 40e-9), "root self = 100 - |[10,60) u [90,100)|");
    expect(near(self[1], 25e-9), "child self excludes its own child");
    expect(near(self[3], 30e-9), "leaf self is its duration");
    std::map<std::string, double> layers = layerSeconds(t);
    expect(near(layers["root"], 40e-9 + 0.5 * 10e-9),
           "layer totals apply root weights");
    expect(near(layers["a"], 25e-9 + 5e-9), "layer totals sum spans");
}

void
flippedWordLowersOkFrac()
{
    using namespace plast;
    setVerbose(false);
    for (const char *app : {"InnerProduct", "OuterProduct"}) {
        apps::AppInstance inst;
        for (const apps::AppSpec &a : apps::allApps()) {
            if (a.name == app)
                inst = a.make(apps::Scale::kTiny);
        }
        Runner r(inst.prog);
        inst.load(r);
        Reference ref = referenceFor(r);
        Runner::Result res;
        Status st = r.tryRun(res);
        serve::JobOutcome out =
            outcomeOf(r.program(), st, res,
                      [&](pir::MemId m) { return r.readDram(m); });

        Tally clean, flipped;
        clean.count(compareOutputs(r.program(), ref, out).empty());
        if (!out.argOuts.empty() && !out.argOuts[0].empty()) {
            out.argOuts[0][0] ^= 1;
        } else {
            for (auto &buf : out.dram) {
                if (!buf.empty()) {
                    buf.back() ^= 1u << 31;
                    break;
                }
            }
        }
        flipped.count(compareOutputs(r.program(), ref, out).empty());
        std::string what = std::string(app) + ": one flipped word drops "
                                              "ok_frac from 1 to 0";
        expect(clean.okFrac() == 1.0 && flipped.okFrac() == 0.0,
               what.c_str());
    }
}

} // namespace

int
main()
{
    percentileRefusesThinTails();
    selfTimeOnSyntheticTree();
    flippedWordLowersOkFrac();
    std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest ok");
    return failures ? 1 : 0;
}

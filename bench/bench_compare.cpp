/**
 * @file
 * The perf-regression gate: diffs two stats-JSON / manifest files and
 * exits nonzero when the current run regressed past the noise
 * thresholds, or moved a deterministic counter either way. This is what turns the committed BENCH_*.json baselines
 * from decoration into a contract — a PR that slows a gated metric
 * fails CI instead of silently rotting the perf trajectory.
 *
 *   bench_compare BASELINE.json CURRENT.json [options]   (--help)
 *
 * By default deterministic counters must match exactly (`--tol=0`)
 * and wall-clock keys may grow 3x plus 50 ms (`--time-tol=2
 * --time-slack-us=50000`): CI machines are noisy, so the gate catches
 * order-of-magnitude rot, not jitter.
 *
 * Inputs are JSON objects; nested objects flatten with '.' (so run
 * manifests diff as naturally as flat bench stats). String/bool/null
 * values and arrays are provenance, not measurements — skipped. A key
 * is wall-clock-like when it contains "wall", "seconds" or "_us";
 * everything else is deterministic. A wall-clock key fails only when
 * it rises past its slack; a deterministic counter that falls is a
 * changed machine or compiler too, so it fails as well until the
 * baseline is regenerated with the change. A baseline key missing from the
 * current run fails the gate: a gated metric that silently vanishes
 * would otherwise stop being gated. Keys only in the current run (a
 * schema addition) are not gated until the baseline is regenerated.
 *
 * Exit codes: 0 pass, 1 regression(s), changed counter(s) or missing
 * key(s), 2 usage / parse error.
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "base/flags.hpp"
#include "base/textio.hpp"

namespace
{

// ---- minimal JSON reader (objects, numbers; rest skipped) -----------

struct Parser
{
    const std::string &text;
    size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\' && pos < text.size()) {
                char e = text[pos++];
                switch (e) {
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u':
                    // \uXXXX: keep the raw escape; keys never use it.
                    out += "\\u";
                    break;
                  default: out.push_back(e); break;
                }
            } else {
                out.push_back(c);
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos;
        return true;
    }

    /** Parse any value; numeric leaves land in `out` under `prefix`. */
    bool
    parseValue(const std::string &prefix,
               std::map<std::string, double> &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{')
            return parseObject(prefix, out);
        if (c == '[') {
            // Arrays are structure, not gateable scalars: skip.
            ++pos;
            int depth = 1;
            bool inStr = false;
            while (pos < text.size() && depth > 0) {
                char a = text[pos++];
                if (inStr) {
                    if (a == '\\')
                        ++pos;
                    else if (a == '"')
                        inStr = false;
                } else if (a == '"') {
                    inStr = true;
                } else if (a == '[') {
                    ++depth;
                } else if (a == ']') {
                    --depth;
                }
            }
            return depth == 0 || fail("unterminated array");
        }
        if (c == '"') {
            std::string s;
            return parseString(s); // provenance: skipped
        }
        if (std::strncmp(text.c_str() + pos, "true", 4) == 0) {
            pos += 4;
            return true;
        }
        if (std::strncmp(text.c_str() + pos, "false", 5) == 0) {
            pos += 5;
            return true;
        }
        if (std::strncmp(text.c_str() + pos, "null", 4) == 0) {
            pos += 4;
            return true;
        }
        // Number.
        size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        if (pos == start)
            return fail("expected value");
        std::string_view num(text.c_str() + start, pos - start);
        return plast::parseNumber(num, out[prefix]) || fail("bad number");
    }

    bool
    parseObject(const std::string &prefix,
                std::map<std::string, double> &out)
    {
        if (!expect('{'))
            return false;
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!expect(':'))
                return false;
            std::string full =
                prefix.empty() ? key : prefix + "." + key;
            if (!parseValue(full, out))
                return false;
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            return expect('}');
        }
    }
};

bool
loadFlat(const char *path, std::map<std::string, double> &out,
         std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = std::string("cannot open ") + path;
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    std::string text = ss.str();
    Parser p(text);
    if (!p.parseObject("", out)) {
        err = std::string(path) + ": " + p.error;
        return false;
    }
    return true;
}

bool
isTimeKey(const std::string &key)
{
    return key.find("wall") != std::string::npos ||
           key.find("seconds") != std::string::npos ||
           key.find("_us") != std::string::npos ||
           key.find("timings_us") != std::string::npos;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string basePath, curPath;
    double tol = 0.0, timeTol = 2.0, timeSlackUs = 50000;
    bool verbose = false;
    plast::FlagSet flags("bench_compare",
                         "BASELINE.json CURRENT.json [options]");
    flags.arg("BASELINE.json", basePath, "baseline stats JSON")
        .arg("CURRENT.json", curPath, "current stats JSON")
        .real("tol", tol,
              "relative slack, either way, for deterministic counters")
        .real("time-tol", timeTol, "relative slack for wall-clock keys")
        .real("time-slack-us", timeSlackUs,
              "absolute wall-clock slack added on top")
        .sw("verbose", verbose, "print every compared key");
    if (auto rc = flags.parse(argc, argv))
        return *rc;

    std::map<std::string, double> base, cur;
    std::string err;
    if (!loadFlat(basePath.c_str(), base, err) ||
        !loadFlat(curPath.c_str(), cur, err)) {
        std::fprintf(stderr, "bench_compare: %s\n", err.c_str());
        return 2;
    }
    if (base.empty()) {
        // An empty baseline means the trajectory starts now: pass, so
        // the first CI run after committing a stub baseline succeeds.
        std::printf("baseline %s is empty; nothing to gate\n",
                    basePath.c_str());
        return 0;
    }

    int regressions = 0, changed = 0, improved = 0, compared = 0,
        missing = 0;
    for (const auto &[key, bval] : base) {
        auto it = cur.find(key);
        if (it == cur.end()) {
            std::printf("MISSING   %s (baseline %.0f, absent now)\n",
                        key.c_str(), bval);
            ++missing;
            continue;
        }
        double cval = it->second;
        ++compared;
        bool timey = isTimeKey(key);
        double relTol = timey ? timeTol : tol;
        double slack = timey ? timeSlackUs : 0.0;
        double limit = bval * (1.0 + relTol) + slack;
        if (cval > limit) {
            std::printf("REGRESSION %s: %.0f -> %.0f (limit %.0f, "
                        "%+.1f%%)\n",
                        key.c_str(), bval, cval, limit,
                        bval > 0 ? 100.0 * (cval - bval) / bval : 0.0);
            ++regressions;
        } else if (!timey && cval < bval * (1.0 - relTol)) {
            std::printf("CHANGED   %s: %.0f -> %.0f (floor %.0f, "
                        "%+.1f%%)\n",
                        key.c_str(), bval, cval, bval * (1.0 - relTol),
                        bval > 0 ? 100.0 * (cval - bval) / bval : 0.0);
            ++changed;
        } else if (cval < bval) {
            ++improved;
            if (verbose)
                std::printf("improved  %s: %.0f -> %.0f\n", key.c_str(),
                            bval, cval);
        } else if (verbose) {
            std::printf("ok        %s: %.0f -> %.0f\n", key.c_str(),
                        bval, cval);
        }
    }

    std::printf("bench_compare: %d compared, %d regressions, "
                "%d changed, %d improved, %d missing (tol=%g, "
                "time-tol=%g, time-slack-us=%g)\n",
                compared, regressions, changed, improved, missing, tol,
                timeTol, timeSlackUs);
    return regressions || changed || missing ? 1 : 0;
}

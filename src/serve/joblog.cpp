#include "serve/joblog.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "base/logging.hpp"

namespace plast::serve
{

namespace
{

constexpr const char *kHeader = "plast.joblog.v2";

/** Outcomes shaped by wall clock / queue pressure, not job content. */
bool
nonDeterministicOutcome(const std::string &outcome)
{
    return outcome == "shed" || outcome == "circuit-open" ||
           outcome == "cancelled" || outcome == "deadline-exceeded";
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    snprintf(buf, sizeof buf, "%016llx",
             static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

void
writeJobLogHeader(std::ostream &os)
{
    os << kHeader << "\n";
}

void
writeJobLogLine(std::ostream &os, const JobResult &r)
{
    os << "job id=" << r.id << " seq=" << r.seq
       << " worker=" << r.worker << " pir=" << hex64(r.pirHash)
       << " arch=" << hex64(r.archHash)
       << " inputs=" << hex64(r.inputsHash)
       << " options=" << hex64(r.optionsHash)
       << " chit=" << (r.configHit ? 1 : 0)
       << " rhit=" << (r.resultHit ? 1 : 0) << " result="
       << hex64(r.outcome ? r.outcome->resultHash : 0)
       << " cycles=" << (r.outcome ? r.outcome->cycles : 0)
       << " exe=" << (r.executed ? 1 : 0)
       << " retries=" << r.retries << " outcome="
       << (r.outcome ? r.outcome->outcome : "lost")
       // src is free-form (app names contain spaces) so it is
       // last: everything after "src=" to end of line.
       << " src=" << r.source << "\n";
}

void
writeJobLog(std::ostream &os, const std::vector<JobResult> &results)
{
    std::vector<const JobResult *> ordered;
    ordered.reserve(results.size());
    for (const JobResult &r : results)
        ordered.push_back(&r);
    std::sort(ordered.begin(), ordered.end(),
              [](const JobResult *a, const JobResult *b) {
                  return a->seq < b->seq;
              });
    writeJobLogHeader(os);
    for (const JobResult *r : ordered)
        writeJobLogLine(os, *r);
}

namespace
{

/** Parse one "job ..." line; false + msg on malformed input. */
bool
parseJobLine(const std::string &line, size_t lineno, JobLogEntry &e,
             std::string &msg)
{
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "job") {
        msg = strfmt("line %zu: expected 'job', got '%s'", lineno,
                     tag.c_str());
        return false;
    }
    bool haveSrc = false;
    std::string tok;
    while (ls >> tok) {
        size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            msg = strfmt("line %zu: bad token '%s'", lineno,
                         tok.c_str());
            return false;
        }
        std::string key = tok.substr(0, eq);
        std::string val = tok.substr(eq + 1);
        if (key == "src") {
            // Free-form remainder of the line.
            std::string rest;
            std::getline(ls, rest);
            e.source = val + rest;
            haveSrc = true;
            break;
        }
        try {
            if (key == "id")
                e.id = std::stoull(val);
            else if (key == "seq")
                e.seq = std::stoull(val);
            else if (key == "worker")
                e.worker = static_cast<uint32_t>(std::stoul(val));
            else if (key == "pir")
                e.pirHash = std::stoull(val, nullptr, 16);
            else if (key == "arch")
                e.archHash = std::stoull(val, nullptr, 16);
            else if (key == "inputs")
                e.inputsHash = std::stoull(val, nullptr, 16);
            else if (key == "options")
                e.optionsHash = std::stoull(val, nullptr, 16);
            else if (key == "chit")
                e.configHit = val == "1";
            else if (key == "rhit")
                e.resultHit = val == "1";
            else if (key == "result")
                e.resultHash = std::stoull(val, nullptr, 16);
            else if (key == "cycles")
                e.cycles = std::stoull(val);
            else if (key == "exe")
                e.executed = val == "1";
            else if (key == "retries")
                e.retries = static_cast<uint32_t>(std::stoul(val));
            else if (key == "outcome")
                e.outcome = val;
            else {
                msg = strfmt("line %zu: unknown key '%s'", lineno,
                             key.c_str());
                return false;
            }
        } catch (const std::exception &) {
            msg = strfmt("line %zu: bad value '%s' for '%s'", lineno,
                         val.c_str(), key.c_str());
            return false;
        }
    }
    if (!haveSrc) {
        msg = strfmt("line %zu: missing src=", lineno);
        return false;
    }
    return true;
}

} // namespace

bool
readJobLog(std::istream &is, std::vector<JobLogEntry> &out,
           std::string *err, std::string *warn)
{
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return false;
    };
    // Slurp the stream so the final line's termination state is
    // visible: a SIGKILLed --joblog-sync writer leaves either a
    // newline-terminated prefix (clean) or a torn final line.
    std::string all((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    bool terminated = !all.empty() && all.back() == '\n';
    std::vector<std::string> lines;
    for (size_t pos = 0; pos < all.size();) {
        size_t nl = all.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(all.substr(pos));
            break;
        }
        lines.push_back(all.substr(pos, nl - pos));
        pos = nl + 1;
    }
    if (lines.empty() || lines[0] != kHeader)
        return fail("missing '" + std::string(kHeader) + "' header");
    for (size_t i = 1; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        bool last = i + 1 == lines.size();
        if (line.empty() || line[0] == '#')
            continue;
        JobLogEntry e;
        std::string msg;
        bool parsed = parseJobLine(line, i + 1, e, msg);
        if (last && !terminated) {
            // Torn final line: the writer died mid-append. Even a
            // parseable tail is untrustworthy (src= is free-form, so
            // a cut inside it still "parses") — drop it with a
            // warning; every terminated record before it stands.
            if (warn)
                *warn = strfmt("dropped torn final line %zu "
                               "(unterminated%s)",
                               i + 1,
                               parsed ? "" : "; unparseable too");
            break;
        }
        if (!parsed)
            return fail(msg); // terminated garbage is corruption, not
                              // a torn tail — stays a hard error
        out.push_back(std::move(e));
    }
    return true;
}

ReplayReport
replayLog(const std::vector<JobLogEntry> &log,
          const std::vector<JobSpec> &specs, const ServeOptions &opts,
          bool checkConfigHits)
{
    std::map<std::string, const JobSpec *> bySource;
    for (const JobSpec &s : specs)
        bySource[s.source] = &s;

    std::vector<const JobLogEntry *> ordered;
    ordered.reserve(log.size());
    for (const JobLogEntry &e : log)
        ordered.push_back(&e);
    std::sort(ordered.begin(), ordered.end(),
              [](const JobLogEntry *a, const JobLogEntry *b) {
                  return a->seq < b->seq;
              });

    ServeOptions ropts = opts;
    ropts.workers = 1;
    // Replay is store-free by definition: it must re-derive every
    // result from scratch, so a replay that matches a store-served
    // run proves the persisted configs were bit-identical to fresh
    // compiles (the warm-restart proof).
    ropts.storeDir.clear();
    Server server(ropts);

    ReplayReport rep;
    auto diff = [&](const JobLogEntry &e, const char *field,
                    std::string logged, std::string replayed) {
        rep.mismatches.push_back(
            {e.id, field, std::move(logged), std::move(replayed)});
    };
    // Keys a cancelled/abandoned build touched in the live run: the
    // abandonment shifted hit/miss for later requesters of the SAME
    // key, so rhit is advisory there (outcome/result stay checked).
    std::set<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>>
        tainted;
    for (const JobLogEntry *ep : ordered) {
        const JobLogEntry &e = *ep;
        auto key = std::make_tuple(e.pirHash, e.archHash, e.inputsHash,
                                   e.optionsHash);
        if (!e.executed || nonDeterministicOutcome(e.outcome)) {
            // Accounted, not replayed: these outcomes exist only under
            // live queue pressure and wall-clock budgets.
            ++rep.skipped;
            tainted.insert(key);
            continue;
        }
        auto it = bySource.find(e.source);
        if (it == bySource.end()) {
            diff(e, "source", e.source, "<no spec>");
            continue;
        }
        ++rep.jobs;
        JobSpec spec = *it->second; // copy: executeJob takes by value
        spec.id = e.id;
        spec.deadlineMs = 0; // replay is budget-free by definition
        JobResult got = server.executeJob(std::move(spec));
        if (got.resultHit)
            ++rep.resultHits;
        if (got.resultHit != e.resultHit && tainted.count(key) == 0)
            diff(e, "rhit", std::to_string(e.resultHit),
                 std::to_string(got.resultHit));
        if (checkConfigHits && got.configHit != e.configHit)
            diff(e, "chit", std::to_string(e.configHit),
                 std::to_string(got.configHit));
        uint64_t gotHash =
            got.outcome ? got.outcome->resultHash : 0;
        if (gotHash != e.resultHash)
            diff(e, "result", hex64(e.resultHash), hex64(gotHash));
        Cycles gotCycles = got.outcome ? got.outcome->cycles : 0;
        if (gotCycles != e.cycles)
            diff(e, "cycles", std::to_string(e.cycles),
                 std::to_string(gotCycles));
        std::string gotOutcome =
            got.outcome ? got.outcome->outcome : "lost";
        if (gotOutcome != e.outcome)
            diff(e, "outcome", e.outcome, gotOutcome);
        if (got.pirHash != e.pirHash)
            diff(e, "pir", hex64(e.pirHash), hex64(got.pirHash));
        if (got.inputsHash != e.inputsHash)
            diff(e, "inputs", hex64(e.inputsHash),
                 hex64(got.inputsHash));
    }
    return rep;
}

} // namespace plast::serve

#include "serve/joblog.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "base/logging.hpp"
#include "base/textio.hpp"

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

/** One token with no placeholder for the empty string. */
template <class S>
Name<S>
word(S &s)
{
    return {s, ""};
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    snprintf(buf, sizeof buf, "%016llx",
             static_cast<unsigned long long>(v));
    return buf;
}

/** A job line's one field list: `job`, then each field as
 *  `key=value` in this order. src is free-form (app names contain
 *  spaces), so it is last and runs to the end of the line. */
template <class Ar, Is<JobLogEntry> E>
void
fields(Ar &ar, E &e)
{
    ar.line("job", keyed("id", e.id), keyed("seq", e.seq),
            keyed("worker", e.worker), keyed("pir", hash(e.pirHash)),
            keyed("arch", hash(e.archHash)),
            keyed("inputs", hash(e.inputsHash)),
            keyed("options", hash(e.optionsHash)),
            keyed("chit", e.configHit), keyed("rhit", e.resultHit),
            keyed("result", hash(e.resultHash)), keyed("cycles", e.cycles),
            keyed("exe", e.executed), keyed("retries", e.retries),
            keyed("outcome", word(e.outcome)),
            keyed("src", rest(e.source)));
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
    const JobOutcome *o = r.outcome.get();
    JobLogEntry e{r.id, r.seq, r.worker, r.pirHash, r.archHash,
                  r.inputsHash, r.optionsHash, r.configHit, r.resultHit,
                  o ? o->resultHash : 0, o ? o->cycles : 0, r.executed,
                  r.retries, o ? o->outcome : "lost", r.source};
    TextWriter ar(os);
    fields(ar, e);
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
    TextReader ar(ls);
    fields(ar, e);
    if (!ar.ok())
        msg = strfmt("line %zu: %s", lineno, ar.error().c_str());
    return ar.ok();
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

/**
 * @file
 * The serve daemon's job log: a line-oriented text record of every
 * finished job (content hashes, cache hit flags, outcome, result
 * hash) plus the machinery to replay a log serially and prove the
 * concurrent run was deterministic.
 *
 * Replay contract: result-cache behavior is *fully* determined by the
 * cache-access sequence numbers — seq is assigned under the cache
 * lock, hit/miss is decided at that same instant, and LRU/eviction
 * decisions happen at miss time — so re-executing the logged jobs
 * serially in seq order through a fresh server (same capacities, same
 * options) must reproduce every job's resultHit flag, outcome and
 * resultHash bit-for-bit, no matter how many workers produced the
 * log. Config-cache hits cross a second lock nested inside the
 * result-cache build, so their interleaving is only totally ordered
 * when the log came from a single worker; replayLog checks them
 * strictly only when `checkConfigHits` is set (pass true for
 * workers=1 logs).
 */

#ifndef PLAST_SERVE_JOBLOG_HPP
#define PLAST_SERVE_JOBLOG_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace plast::serve
{

/** One parsed job-log line (field-for-field what writeJobLog emits). */
struct JobLogEntry
{
    uint64_t id = 0;
    uint64_t seq = 0;
    uint32_t worker = 0;
    uint64_t pirHash = 0;
    uint64_t archHash = 0;
    uint64_t inputsHash = 0;
    uint64_t optionsHash = 0;
    bool configHit = false;
    bool resultHit = false;
    uint64_t resultHash = 0;
    Cycles cycles = 0;
    bool executed = true; ///< `exe=`
    uint32_t retries = 0; ///< `retries=`
    std::string outcome;
    std::string source; ///< replay join key (free-form, last on the line)
};

/** Header line + one "job ..." line per result, in seq order. */
void writeJobLog(std::ostream &os, const std::vector<JobResult> &results);

/** Streaming (durable-append) form: header once, then one line per
 *  finished job in finish order — readJobLog/replayLog sort by seq,
 *  so append order never matters. Flushing per line is the caller's
 *  policy (serve_app --joblog-sync), which is what leaves a
 *  replayable prefix behind a SIGKILLed daemon. */
void writeJobLogHeader(std::ostream &os);
void writeJobLogLine(std::ostream &os, const JobResult &r);

/**
 * Parse a job log; false + err on malformed input. A *torn final
 * line* — the unterminated tail a crashed writer left behind — is
 * dropped with a note in `warn` (when non-null) instead of failing
 * the parse: every fully-written record before it is still
 * replayable. A newline-terminated malformed line, final or not, is
 * still a hard error (that is corruption, not a crash artifact).
 */
bool readJobLog(std::istream &is, std::vector<JobLogEntry> &out,
                std::string *err = nullptr, std::string *warn = nullptr);

struct ReplayMismatch
{
    uint64_t id = 0;
    std::string field;
    std::string logged;
    std::string replayed;
};

struct ReplayReport
{
    size_t jobs = 0;
    size_t resultHits = 0;
    /** Entries accounted for but not re-executed: rejected at
     *  admission (exe=0) or with a wall-clock-shaped outcome (shed,
     *  circuit-open, cancelled, deadline-exceeded). A serial replay
     *  has no queue pressure and no deadline clock, so re-running
     *  them would diverge by construction — they are counted here
     *  instead of reported as mismatches. */
    size_t skipped = 0;
    std::vector<ReplayMismatch> mismatches;
    bool ok() const { return mismatches.empty(); }
};

/**
 * Re-execute a job log serially: a fresh single-threaded server with
 * `opts` capacities runs the logged jobs in seq order (specs joined
 * by JobSpec::source — regenerate the original traffic to get them)
 * and every job's resultHit / outcome / cycles / resultHash is
 * compared against the log. `checkConfigHits` additionally compares
 * configHit (only meaningful for single-worker logs, see above).
 */
ReplayReport replayLog(const std::vector<JobLogEntry> &log,
                       const std::vector<JobSpec> &specs,
                       const ServeOptions &opts,
                       bool checkConfigHits = false);

} // namespace plast::serve

#endif // PLAST_SERVE_JOBLOG_HPP

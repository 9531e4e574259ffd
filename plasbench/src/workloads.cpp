#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

#include "apps/apps.hpp"
#include "base/logging.hpp"
#include "base/profile.hpp"
#include "compiler/mapper.hpp"
#include "pir/validate.hpp"
#include "serve/traffic.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace plasbench
{

using namespace plast;

namespace
{

// ---- sizing ----------------------------------------------------------
// The timed work is fixed for a given --seconds, so parent and child
// commits time the same work. These nominal costs (one 4-core x86 host,
// Release build) only turn seconds into pass and job counts.
constexpr double kStreamPassS = 2.0;
constexpr double kOnchipPassS = 0.61;
constexpr double kSweepPassS = 0.165;
constexpr double kServeJobsPerS = 340;
constexpr size_t kMinServeJobs = 1000; // p99 with 10 samples beyond it
// The host's speed drifts by tens of percent over seconds, so every
// timed quantity is a total or mean over samples spread across the
// whole run, never a median of one moment: set-up is timed again after
// each untraced pass (sim, compile) or before and after the timed loop
// (serve), and the check simulations run in rounds spread over the run.
// The set-up counts give about 2 s of set-up samples per 20 s run.
constexpr int kStreamSetupsPerPass = 7;
constexpr int kOnchipSetupsPerPass = 8;
constexpr int kSweepSetupsPerPass = 25;
constexpr int kServeSetupsEachSide = 5;
constexpr size_t kSweepSimRounds = 9;

// ---- serve deployment settings (everything else is ServeOptions{}) --
constexpr uint32_t kServeWorkers = 2;
constexpr size_t kResultCacheEntries = 16;
constexpr size_t kOutstanding = 4;
constexpr size_t kIdentities = 52; // 13 tiny apps x 4 variants

const std::vector<std::string> kStreamApps = {
    "InnerProduct", "OuterProduct", "Black-Scholes", "TPC-H Query 6",
    "SMDV",         "PageRank",     "BFS"};
// CNN is left out: at default scale it fails the reference check (a
// simulator defect; see README.md), and every timed operation must pass.
const std::vector<std::string> kOnchipApps = {"GEMM", "GDA", "LogReg", "SGD",
                                              "Kmeans"};

/** Library phase spans imported under a compileProgram span. */
const std::map<std::string, const char *> kCompilePhases = {
    {"compile.precheck", "compiler.precheck"},
    {"compile.partition", "compiler.partition"},
    {"compile.codegen", "compiler.codegen"},
    {"compile.placeroute", "compiler.placeroute"},
};

/** Every per-layer metric, printed by every traced run (0 where the
 *  workload does not exercise the layer). */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"runtime.stage_s", "s"},
    {"pir.validate_s", "s"},
    {"compiler.precheck_s", "s"},
    {"compiler.compile_s", "s"},
    {"compiler.partition_s", "s"},
    {"compiler.codegen_s", "s"},
    {"compiler.placeroute_s", "s"},
    {"compiler.route_rounds", "count"},
    {"compiler.place_attempts", "count"},
    {"compiler.rejected", "count"},
    {"sim.build_s", "s"},
    {"sim.dram_load_s", "s"},
    {"sim.run_s", "s"},
    {"sim.ns_per_cycle", "ns"},
    {"sim.stats_s", "s"},
    {"sim.ag.steps", "count"},
    {"sim.ag.active_frac", "ratio"},
    {"sim.ag.dram_wait_cycles", "cycles"},
    {"sim.mem.bursts", "count"},
    {"sim.dram.row_hit_frac", "ratio"},
    {"sim.pcu.steps", "count"},
    {"sim.pcu.active_frac", "ratio"},
    {"sim.pmu.steps", "count"},
    {"sim.pmu.active_frac", "ratio"},
    {"sim.pmu.bank_conflict_cycles", "cycles"},
    {"sim.box.steps", "count"},
    {"sim.box.active_frac", "ratio"},
    {"sim.net.pushes", "count"},
    {"serve.latency_p50_ms", "ms"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.exec_ms_p99", "ms"},
    {"serve.result_hit_frac", "ratio"},
    {"serve.config_hit_frac", "ratio"},
    {"serve.result_evictions", "count"},
    {"serve.hash_s", "s"},
    {"serve.readback_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

double
seconds(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

size_t
countFor(double secs, double unitCost, size_t minimum)
{
    return std::max<size_t>(minimum,
                            static_cast<size_t>(std::llround(secs / unitCost)));
}

const apps::AppSpec &
appByName(const std::string &name)
{
    for (const apps::AppSpec &a : apps::allApps()) {
        if (a.name == name)
            return a;
    }
    panic("unknown app '%s'", name.c_str());
}

/** " wall_s: a b c ..." for a run's per-pass times. */
std::string
passList(const std::vector<double> &walls)
{
    std::string out = " wall_s:";
    for (double w : walls)
        out += strfmt(" %.4f", w);
    return out;
}

/** Traced passes alternate with untraced ones so drift hits both. */
bool
tracedPass(const Options &opt, size_t pass)
{
    return opt.trace && pass % 2 == 1;
}

// ---- simulator counters ------------------------------------------------

/** Sums of the per-unit and memory-system counters Fabric::dumpStats
 *  reports; steps are evaluated unit-cycles (`cycles.stepped`). */
struct SimCounts
{
    struct Unit
    {
        double steps = 0, active = 0;
    };
    Unit pcu, pmu, ag, box;
    double agDramWait = 0, pmuBankConflict = 0;
    double memBursts = 0, rowHits = 0, rowMisses = 0, netPushes = 0;

    void
    add(const StatSet &st)
    {
        for (const auto &[key, v] : st.all()) {
            auto dot = key.find('.');
            std::string unit = key.substr(0, dot);
            std::string rest = dot == std::string::npos
                                   ? ""
                                   : key.substr(dot + 1);
            unit.erase(unit.find_last_not_of("0123456789") + 1);
            auto d = static_cast<double>(v);
            if (unit == "net" && rest.ends_with(".pushes")) {
                netPushes += d;
                continue;
            }
            if (key == "mem.bursts") {
                memBursts += d;
                continue;
            }
            if (unit == "dram") {
                rowHits += rest == "rowHits" ? d : 0;
                rowMisses += rest == "rowMisses" ? d : 0;
                continue;
            }
            Unit *u = unit == "pcu"   ? &pcu
                      : unit == "pmu" ? &pmu
                      : unit == "ag"  ? &ag
                      : unit == "box" ? &box
                                      : nullptr;
            if (!u)
                continue;
            if (rest == "cycles.stepped")
                u->steps += d;
            else if (rest == "cycles.active")
                u->active += d;
            else if (u == &ag && rest == "cycles.dramWait")
                agDramWait += d;
            else if (u == &pmu && rest == "cycles.bankConflict")
                pmuBankConflict += d;
        }
    }

    void
    report(std::map<std::string, double> &m) const
    {
        auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        m["sim.ag.steps"] = ag.steps;
        m["sim.ag.active_frac"] = frac(ag.active, ag.steps);
        m["sim.ag.dram_wait_cycles"] = agDramWait;
        m["sim.mem.bursts"] = memBursts;
        m["sim.dram.row_hit_frac"] = frac(rowHits, rowHits + rowMisses);
        m["sim.pcu.steps"] = pcu.steps;
        m["sim.pcu.active_frac"] = frac(pcu.active, pcu.steps);
        m["sim.pmu.steps"] = pmu.steps;
        m["sim.pmu.active_frac"] = frac(pmu.active, pmu.steps);
        m["sim.pmu.bank_conflict_cycles"] = pmuBankConflict;
        m["sim.box.steps"] = box.steps;
        m["sim.box.active_frac"] = frac(box.active, box.steps);
        m["sim.net.pushes"] = netPushes;
    }
};

// ---- the traced replicas of the library's own paths --------------------

/** Runner::tryCompile through its public parts: validateProgram, then
 *  compileProgram with default options (which runs precheckProgram;
 *  the library's phase spans become children of the compile span). */
Status
tracedCompile(SpanRecorder &rec, const pir::Program &prog,
              const ArchParams &params, uint64_t job,
              compiler::MapResult &out)
{
    std::vector<std::string> problems;
    {
        Scope s(&rec, "pir.validate", job);
        problems = pir::validateProgram(prog, params.pcu.lanes);
    }
    if (!problems.empty())
        return Status(StatusCode::kValidationError, problems[0]);
    HostProfiler::instance().clear(); // keep only this compile's phases
    int32_t idx;
    {
        Scope s(&rec, "compiler.compile", job);
        idx = s.index();
        out = compiler::compileProgram(prog, params, compiler::UnitMask{},
                                       compiler::CompileOptions{});
    }
    rec.importProfilerSpans(idx, kCompilePhases);
    return out.report.ok ? Status()
                         : Status(StatusCode::kCompileError,
                                  out.report.error);
}

/** One simulation the way Runner::tryRun does it after compiling:
 *  build the fabric, load the DRAM image, run, harvest. */
struct TracedRun
{
    std::unique_ptr<Fabric> fabric;
    Status status;
    Runner::Result result;

    std::vector<Word>
    readDram(const Runner &runner, pir::MemId id) const
    {
        std::vector<Word> out(runner.program().mems.at(id).sizeWords);
        Addr base = runner.mapResult().dramBase[id];
        for (size_t w = 0; w < out.size(); ++w)
            out[w] = fabric->dram().readWord(base + w * 4);
        return out;
    }
};

TracedRun
tracedRun(SpanRecorder &rec, const Runner &runner, uint64_t job,
          Cycles maxCycles)
{
    const compiler::MapResult &map = runner.mapResult();
    const pir::Program &prog = runner.program();
    TracedRun tr;
    {
        Scope s(&rec, "sim.build", job);
        tr.fabric = std::make_unique<Fabric>(map.fabric, SimOptions{});
    }
    {
        Scope s(&rec, "sim.dram_load", job);
        Addr extent = 0;
        for (size_t m = 0; m < prog.mems.size(); ++m) {
            if (prog.mems[m].kind == pir::MemKind::kDram)
                extent = std::max(extent, map.dramBase[m] +
                                              prog.mems[m].sizeWords * 4 +
                                              64);
        }
        tr.fabric->dram().reserve(extent);
        for (const auto &[mid, data] : runner.hostBuffers()) {
            Addr base = map.dramBase[mid];
            for (size_t w = 0; w < data.size(); ++w)
                tr.fabric->dram().writeWord(base + w * 4, data[w]);
        }
    }
    RunResult rr;
    {
        Scope s(&rec, "sim.run", job);
        rr = tr.fabric->runChecked(maxCycles);
    }
    tr.status = rr.status;
    tr.result.cycles = rr.cycles;
    {
        Scope s(&rec, "sim.stats", job);
        tr.fabric->dumpStats(tr.result.stats);
    }
    tr.result.argOuts.resize(prog.numArgOuts);
    for (uint32_t s = 0; s < prog.numArgOuts; ++s)
        tr.result.argOuts[s] = tr.fabric->argOut(s);
    return tr;
}

/** Per-layer timed metrics: span "sim.run" reports as "sim.run_s". */
void
reportLayers(const SpanRecorder &rec, std::map<std::string, double> &m)
{
    for (const auto &[span, secs] : layerSeconds(rec.spans()))
        m[span + "_s"] = secs;
}

void
writeTrace(const Options &opt, const SpanRecorder &rec)
{
    if (opt.traceOut.empty())
        return;
    std::ofstream os(opt.traceOut);
    rec.writeChromeTrace(os);
    os.close();
    fatal_if(!os, "cannot write trace file '%s'", opt.traceOut.c_str());
}

void
finish(const Options &opt, Report &rep,
       const std::vector<Metric> &endToEnd,
       const std::map<std::string, double> &layers)
{
    if (!opt.trace) {
        rep.metrics = endToEnd;
        return;
    }
    for (const auto &[name, unit] : kPerLayer) {
        auto it = layers.find(name);
        rep.metrics.push_back(
            {name, it == layers.end() ? 0.0 : it->second, unit});
    }
}

// ---- sim-stream / sim-onchip ---------------------------------------------

struct SimJob
{
    std::string name;
    std::unique_ptr<Runner> runner;
    Status compiled;
    Reference ref;
    // First run's fingerprint: later runs must reproduce it exactly.
    bool firstOk = false;
    uint64_t hash = 0;
    Cycles cycles = 0;
    std::string verdict = "not run";
    std::vector<double> hostS;
};

/** Program build, Runner construction, input staging and compile. */
std::vector<SimJob>
simSetup(const std::vector<std::string> &names, SpanRecorder *rec)
{
    std::vector<SimJob> jobs;
    int32_t root = rec ? rec->open("setup", 0) : -1;
    for (size_t i = 0; i < names.size(); ++i) {
        uint64_t id = i + 1;
        SimJob j;
        j.name = names[i];
        apps::AppInstance inst = appByName(names[i]).make(
            apps::Scale::kDefault);
        {
            Scope s(rec, "runtime.stage", id);
            j.runner = std::make_unique<Runner>(std::move(inst.prog));
            inst.load(*j.runner);
        }
        if (rec) {
            compiler::MapResult mr;
            j.compiled = tracedCompile(*rec, j.runner->program(),
                                       ArchParams::plasticineFinal(), id,
                                       mr);
            if (j.compiled.ok())
                j.runner->adoptCompiled(
                    std::make_shared<const compiler::MapResult>(
                        std::move(mr)));
        } else {
            j.compiled = j.runner->tryCompile();
        }
        jobs.push_back(std::move(j));
    }
    if (rec)
        rec->close(root);
    return jobs;
}

bool
simWorkload(const Options &opt, const std::vector<std::string> &names,
            double passCostS, int setupsPerPass, Report &rep)
{
    // The first set-up runs; the later ones (untraced run only) are
    // timed samples and dropped.
    std::vector<double> setupS;
    SpanRecorder rec;
    auto timedSetup = [&]() {
        uint64_t t0 = nowNs();
        std::vector<SimJob> js = simSetup(names, opt.trace ? &rec : nullptr);
        setupS.push_back(seconds(nowNs() - t0));
        return js;
    };
    std::vector<SimJob> jobs = timedSetup();
    for (SimJob &j : jobs) {
        if (j.compiled.ok())
            j.ref = referenceFor(*j.runner);
    }

    size_t passes = countFor(opt.seconds, passCostS, 3);
    std::vector<double> wallU, wallT;
    std::map<std::string, double> layers;
    Cycles passCycles = 0;
    for (size_t p = 0; p < passes; ++p) {
        bool traced = tracedPass(opt, p);
        // The library's phase profiler keeps every span it records;
        // empty it between passes so it does not grow over the run.
        HostProfiler::instance().clear();
        SimCounts counts;
        Cycles cycles = 0;
        double wall = 0;
        int32_t root = traced ? rec.open("pass", 0) : -1;
        for (size_t i = 0; i < jobs.size(); ++i) {
            SimJob &j = jobs[i];
            if (!j.compiled.ok()) {
                rep.tally.count(false);
                j.verdict = "compile failed: " + j.compiled.message();
                continue;
            }
            serve::JobOutcome out;
            uint64_t t0 = nowNs(), t1;
            if (traced) {
                int32_t js = rec.open("sim.job", i + 1);
                TracedRun tr = tracedRun(rec, *j.runner, i + 1,
                                         500'000'000);
                t1 = nowNs();
                rec.close(js);
                out = outcomeOf(j.runner->program(), tr.status, tr.result,
                                [&](pir::MemId m) {
                                    return tr.readDram(*j.runner, m);
                                });
            } else {
                Runner::Result res;
                Status st = j.runner->tryRun(res);
                t1 = nowNs();
                out = outcomeOf(j.runner->program(), st, res,
                                [&](pir::MemId m) {
                                    return j.runner->readDram(m);
                                });
                counts.add(res.stats);
            }
            out.resultHash = serve::hashOutcome(out);
            wall += seconds(t1 - t0);
            cycles += out.cycles;
            j.hostS.push_back(seconds(t1 - t0));
            if (p == 0) {
                std::string why = compareOutputs(j.runner->program(),
                                                 j.ref, out);
                j.firstOk = why.empty();
                j.verdict = why.empty() ? "ok" : "mismatch: " + why;
                j.hash = out.resultHash;
                j.cycles = out.cycles;
            } else if (out.resultHash != j.hash || out.cycles != j.cycles) {
                j.firstOk = false;
                j.verdict = "not reproducible across passes";
            }
            rep.tally.count(j.firstOk);
        }
        if (traced) {
            rec.close(root);
            wallT.push_back(wall);
        } else {
            wallU.push_back(wall);
            passCycles = cycles;
            counts.report(layers);
        }
        for (int k = 0; k < (opt.trace ? 0 : setupsPerPass); ++k)
            (void)timedSetup();
    }

    uint64_t hops = 0;
    size_t mapped = 0;
    for (const SimJob &j : jobs) {
        rep.lines.push_back(strfmt(
            "row %-14s cycles=%-8llu host_s=%.4f verdict=%s", j.name.c_str(),
            static_cast<unsigned long long>(j.cycles), median(j.hostS),
            j.verdict.c_str()));
        if (j.compiled.ok()) {
            ++mapped;
            hops += j.runner->report().routedHops;
            layers["compiler.route_rounds"] +=
                j.runner->report().diag.routeRounds;
            layers["compiler.place_attempts"] +=
                j.runner->report().diag.placementAttempts;
        } else {
            layers["compiler.rejected"] += 1;
        }
    }
    double wallS = total(wallU);
    rep.lines.push_back(strfmt("passes untraced=%zu traced=%zu",
                               wallU.size(), wallT.size()) +
                        passList(wallU));

    if (opt.trace) {
        // Setup spans count once; pass spans are averaged per pass.
        for (size_t i = 0; i < rec.spans().size(); ++i) {
            const Span &s = rec.spans()[i];
            if (s.parent < 0 && std::string(s.name) == "pass")
                rec.setWeight(static_cast<int32_t>(i),
                              1.0 / static_cast<double>(wallT.size()));
        }
        reportLayers(rec, layers);
        layers["sim.ns_per_cycle"] =
            passCycles ? layers["sim.run_s"] / passCycles * 1e9 : 0.0;
        layers["trace.overhead_frac"] = mean(wallT) / mean(wallU) - 1.0;
        writeTrace(opt, rec);
    }
    finish(opt, rep,
           {{"wall_s", wallS, "s"},
            {"setup_s", mean(setupS), "s"},
            {"sim_mcycles_per_s", passCycles / mean(wallU) / 1e6,
             "Mcycles/s"},
            {"sim_cycles", static_cast<double>(passCycles), "cycles"},
            {"ok_frac", rep.tally.okFrac(), "ratio"},
            {"mapped_frac", double(mapped) / jobs.size(), "ratio"},
            {"routed_hops", static_cast<double>(hops), "hops"},
            {"peak_rss_mb", peakRssMb(), "MB"}},
           layers);
    return true;
}

// ---- compile-sweep ---------------------------------------------------------

struct DesignPoint
{
    const char *name;
    ArchParams params;
};

/** Table 3's final point and eight one-knob departures from it. */
std::vector<DesignPoint>
designPoints()
{
    const ArchParams fin = ArchParams::plasticineFinal();
    std::vector<DesignPoint> pts;
    auto with = [&](const char *name, auto edit) {
        ArchParams p = fin;
        edit(p);
        pts.push_back({name, p});
    };
    with("final", [](ArchParams &) {});
    with("stages4", [](ArchParams &p) { p.pcu.stages = 4; });
    with("stages8", [](ArchParams &p) { p.pcu.stages = 8; });
    with("regs4", [](ArchParams &p) { p.pcu.regsPerStage = 4; });
    with("vecio2", [](ArchParams &p) {
        p.pcu.vectorIns = 2;
        p.pcu.vectorOuts = 2;
    });
    with("vtracks2", [](ArchParams &p) { p.vectorTracks = 2; });
    with("vtracks1", [](ArchParams &p) { p.vectorTracks = 1; });
    with("grid12x8", [](ArchParams &p) {
        p.gridCols = 12;
        p.gridRows = 8;
    });
    with("grid8x6", [](ArchParams &p) {
        p.gridCols = 8;
        p.gridRows = 6;
    });
    return pts;
}

/** What one compile produced; later passes must reproduce it. */
struct CompileRec
{
    bool mapped = false;
    uint64_t hops = 0;
    uint32_t rounds = 0, attempts = 0;
    std::string binding;

    bool
    operator==(const CompileRec &o) const
    {
        return mapped == o.mapped && hops == o.hops &&
               rounds == o.rounds && attempts == o.attempts &&
               binding == o.binding;
    }
};

CompileRec
recordOf(const compiler::MapResult &map)
{
    const compiler::MappingReport &r = map.report;
    return {r.ok, r.ok ? r.routedHops : 0, r.diag.routeRounds,
            r.diag.placementAttempts, r.diag.binding};
}

bool
compileSweep(const Options &opt, Report &rep)
{
    const std::vector<DesignPoint> points = designPoints();
    const auto &registry = apps::allApps();

    // Set-up: the 13 tiny programs and the first pass's runners, one
    // per (program, design point); those runners are kept for the check.
    // Later set-ups (untraced run only) are timed samples and dropped.
    const size_t n = registry.size() * points.size();
    std::vector<double> setupS;
    auto timedSetup = [&](std::vector<apps::AppInstance> &insts,
                          std::vector<std::unique_ptr<Runner>> &runners) {
        uint64_t t0 = nowNs();
        for (const apps::AppSpec &a : registry)
            insts.push_back(a.make(apps::Scale::kTiny));
        for (size_t i = 0; i < n; ++i)
            runners.push_back(std::make_unique<Runner>(
                insts[i / points.size()].prog,
                points[i % points.size()].params));
        setupS.push_back(seconds(nowNs() - t0));
    };
    std::vector<apps::AppInstance> insts;
    std::vector<std::unique_ptr<Runner>> kept;
    timedSetup(insts, kept);

    SpanRecorder rec;
    size_t passes = countFor(opt.seconds, kSweepPassS, 3);
    std::vector<double> wallU, wallT;
    std::vector<CompileRec> first(n);
    std::vector<bool> ok(n, true), reproducible(n, true);
    std::vector<std::vector<double>> hostS(n);
    std::map<std::string, double> layers;

    // Check: every mapped config is simulated in rounds spread over the
    // run; the first round is compared against the reference, later
    // ones must reproduce it exactly, and the mean round time gives the
    // simulation rate. A rejected point must carry a typed
    // diagnosis naming its binding resource.
    std::vector<Reference> refs;
    for (const apps::AppInstance &inst : insts) {
        Runner r(inst.prog);
        inst.load(r);
        refs.push_back(referenceFor(r));
    }
    Cycles simCycles = 0;
    uint64_t hops = 0;
    size_t mapped = 0;
    SimCounts counts;
    std::vector<std::string> verdict(n);
    std::vector<uint64_t> hash(n);
    std::vector<double> roundS;
    auto simRound = [&]() {
        bool checkRound = roundS.empty();
        double simS = 0;
        for (size_t i = 0; i < n; ++i) {
            if (!first[i].mapped)
                continue;
            const apps::AppInstance &inst = insts[i / points.size()];
            Runner &r = *kept[i];
            if (checkRound)
                inst.load(r);
            Runner::Result res;
            uint64_t t0 = nowNs();
            Status st = r.tryRun(res);
            simS += seconds(nowNs() - t0);
            serve::JobOutcome out = outcomeOf(
                r.program(), st, res,
                [&](pir::MemId m) { return r.readDram(m); });
            out.resultHash = serve::hashOutcome(out);
            if (checkRound) {
                ++mapped;
                hops += first[i].hops;
                simCycles += res.cycles;
                counts.add(res.stats);
                std::string why = compareOutputs(
                    r.program(), refs[i / points.size()], out);
                ok[i] = ok[i] && why.empty();
                verdict[i] = why.empty() ? "sim ok" : "sim mismatch: " + why;
                hash[i] = out.resultHash;
            } else if (out.resultHash != hash[i]) {
                ok[i] = false;
                verdict[i] = "sim not reproducible";
            }
        }
        roundS.push_back(simS);
    };
    const size_t roundEvery =
        std::max<size_t>(1, passes / kSweepSimRounds);

    for (size_t p = 0; p < passes; ++p) {
        bool traced = tracedPass(opt, p);
        HostProfiler::instance().clear(); // bounded, as in simWorkload
        double wall = 0;
        int32_t root = traced ? rec.open("pass", 0) : -1;
        double rounds = 0, attempts = 0, rejected = 0;
        for (size_t i = 0; i < n; ++i) {
            const apps::AppInstance &inst = insts[i / points.size()];
            const DesignPoint &pt = points[i % points.size()];
            CompileRec cr;
            uint64_t t0 = nowNs(), t1;
            if (traced) {
                compiler::MapResult mr;
                int32_t js = rec.open("compile.job", i + 1);
                (void)tracedCompile(rec, inst.prog, pt.params, i + 1, mr);
                t1 = nowNs();
                rec.close(js);
                cr = recordOf(mr);
            } else {
                std::unique_ptr<Runner> fresh;
                if (p > 0)
                    fresh = std::make_unique<Runner>(inst.prog, pt.params);
                Runner &r = p == 0 ? *kept[i] : *fresh;
                t0 = nowNs();
                (void)r.tryCompile(); // the outcome is in mapResult()
                t1 = nowNs();
                cr = recordOf(r.mapResult());
            }
            wall += seconds(t1 - t0);
            hostS[i].push_back(seconds(t1 - t0));
            rounds += cr.rounds;
            attempts += cr.attempts;
            rejected += cr.mapped ? 0 : 1;
            if (p == 0)
                first[i] = cr;
            else if (!(cr == first[i]))
                reproducible[i] = false;
        }
        if (traced) {
            rec.close(root);
            wallT.push_back(wall);
        } else {
            wallU.push_back(wall);
            layers["compiler.route_rounds"] = rounds;
            layers["compiler.place_attempts"] = attempts;
            layers["compiler.rejected"] = rejected;
        }
        if (p % roundEvery == 0 && roundS.size() < kSweepSimRounds)
            simRound();
        for (int k = 0; k < (opt.trace ? 0 : kSweepSetupsPerPass); ++k) {
            std::vector<apps::AppInstance> dropInsts;
            std::vector<std::unique_ptr<Runner>> dropRunners;
            timedSetup(dropInsts, dropRunners);
        }
    }
    while (roundS.size() < kSweepSimRounds)
        simRound();

    for (size_t i = 0; i < n; ++i) {
        const apps::AppInstance &inst = insts[i / points.size()];
        const DesignPoint &pt = points[i % points.size()];
        if (!first[i].mapped) {
            bool typed = !first[i].binding.empty();
            ok[i] = ok[i] && typed;
            verdict[i] = typed ? "diagnosed: " + first[i].binding
                               : "untyped failure";
        }
        if (!reproducible[i]) {
            ok[i] = false;
            verdict[i] += " (compile not reproducible)";
        }
        rep.lines.push_back(strfmt(
            "row %-14s %-9s mapped=%d hops=%-5llu host_s=%.5f verdict=%s",
            inst.name.c_str(), pt.name, first[i].mapped ? 1 : 0,
            static_cast<unsigned long long>(first[i].hops),
            median(hostS[i]), verdict[i].c_str()));
        for (size_t p = 0; p < passes; ++p)
            rep.tally.count(ok[i]);
    }
    counts.report(layers);
    double wallS = total(wallU);
    rep.lines.push_back(strfmt("passes untraced=%zu traced=%zu, %zu "
                               "compiles per pass",
                               wallU.size(), wallT.size(), n) +
                        passList(wallU));

    if (opt.trace) {
        for (size_t i = 0; i < rec.spans().size(); ++i) {
            if (rec.spans()[i].parent < 0)
                rec.setWeight(static_cast<int32_t>(i),
                              1.0 / static_cast<double>(wallT.size()));
        }
        reportLayers(rec, layers);
        layers["trace.overhead_frac"] = mean(wallT) / mean(wallU) - 1.0;
        writeTrace(opt, rec);
    }
    finish(opt, rep,
           {{"wall_s", wallS, "s"},
            {"setup_s", mean(setupS), "s"},
            {"sim_mcycles_per_s", simCycles / mean(roundS) / 1e6,
             "Mcycles/s"},
            {"sim_cycles", static_cast<double>(simCycles), "cycles"},
            {"ok_frac", rep.tally.okFrac(), "ratio"},
            {"mapped_frac", double(mapped) / n, "ratio"},
            {"routed_hops", static_cast<double>(hops), "hops"},
            {"peak_rss_mb", peakRssMb(), "MB"}},
           layers);
    return true;
}

// ---- serve-mixed ---------------------------------------------------------

/** Closed-loop client: keeps a fixed number of jobs outstanding and
 *  timestamps each submit and each result. */
class ClosedLoop
{
  public:
    struct Done
    {
        uint64_t id = 0;
        uint64_t submitNs = 0;
        uint64_t doneNs = 0;
    };

    /** The server's result hook (runs on a worker thread). */
    void
    onResult(const serve::JobResult &r)
    {
        uint64_t t = nowNs();
        std::lock_guard<std::mutex> lk(mu_);
        done_.push_back({r.id, t});
        cv_.notify_one();
    }

    std::vector<Done>
    run(serve::Server &srv, const std::vector<serve::JobSpec> &specs,
        size_t begin, size_t end)
    {
        std::map<uint64_t, size_t> slot; // job id -> index in out
        std::vector<Done> out;
        size_t next = begin, finished = 0, outstanding = 0;
        while (finished < end - begin) {
            while (outstanding < kOutstanding && next < end) {
                serve::JobSpec spec = specs[next++];
                Done d;
                d.submitNs = nowNs();
                d.id = srv.submit(std::move(spec));
                panic_if(d.id == 0, "server refused a job");
                slot[d.id] = out.size();
                out.push_back(d);
                ++outstanding;
            }
            std::deque<std::pair<uint64_t, uint64_t>> got;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [this] { return !done_.empty(); });
                got.swap(done_);
            }
            for (auto [id, t] : got) {
                out.at(slot.at(id)).doneNs = t;
                --outstanding;
                ++finished;
            }
        }
        return out;
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::pair<uint64_t, uint64_t>> done_;
};

/** One served deployment. The client outlives the server, whose
 *  workers call back into it until drained. */
struct ServeRig
{
    ClosedLoop client;
    serve::Server server;

    static serve::ServeOptions
    options()
    {
        serve::ServeOptions o;
        o.workers = kServeWorkers;
        o.resultCacheCapacity = kResultCacheEntries;
        return o;
    }

    ServeRig() : server(options())
    {
        server.setResultHook(
            [this](const serve::JobResult &r) { client.onResult(r); });
        server.start();
    }
};

/** Server start plus one warm-up pass over every identity. */
std::unique_ptr<ServeRig>
serveSetup(const std::vector<serve::JobSpec> &specs, double &setupS)
{
    uint64_t t0 = nowNs();
    auto rig = std::make_unique<ServeRig>();
    rig->client.run(rig->server, specs, 0, kIdentities);
    setupS = seconds(nowNs() - t0);
    return rig;
}

struct ServeLoop
{
    std::vector<ClosedLoop::Done> done;
    std::map<uint64_t, serve::JobResult> results;
    serve::CacheStats before, after;
    double wallS = 0;
};

ServeLoop
serveTimed(ServeRig &rig, const std::vector<serve::JobSpec> &specs)
{
    ServeLoop loop;
    loop.before = rig.server.resultCacheStats();
    loop.done = rig.client.run(rig.server, specs, kIdentities, specs.size());
    loop.after = rig.server.resultCacheStats();
    uint64_t first = loop.done.front().submitNs, last = 0;
    for (const ClosedLoop::Done &d : loop.done)
        last = std::max(last, d.doneNs);
    loop.wallS = seconds(last - first);
    rig.server.drain();
    for (serve::JobResult &r : rig.server.results())
        loop.results[r.id] = std::move(r);
    return loop;
}

double
pctOrDie(const std::vector<double> &v, double p, const char *what)
{
    std::optional<double> x = percentile(v, p);
    panic_if(!x, "%s: too few samples (%zu) for p%g", what, v.size(), p);
    return *x;
}

bool
serveMixed(const Options &opt, Report &rep)
{
    serve::TrafficOptions to;
    to.seed = opt.seed;
    to.uniques = kIdentities;
    to.jobs = kIdentities + countFor(opt.seconds, 1.0 / kServeJobsPerS,
                                     kMinServeJobs);
    const std::vector<serve::JobSpec> specs = serve::makeTraffic(to);
    const serve::ServeOptions sopts = ServeRig::options();

    // The last set-up before the loop serves it; the others (untraced
    // run only) are timed samples and dropped.
    std::vector<double> setupS;
    auto timedSetup = [&]() {
        double s = 0;
        std::unique_ptr<ServeRig> r = serveSetup(specs, s);
        setupS.push_back(s);
        return r;
    };
    const int eachSide = opt.trace ? 0 : kServeSetupsEachSide;
    for (int k = 0; k < eachSide; ++k)
        (void)timedSetup();
    std::unique_ptr<ServeRig> rig = timedSetup();
    ServeLoop loop = serveTimed(*rig, specs);
    rig.reset();
    for (int k = 0; k < eachSide; ++k)
        (void)timedSetup();

    // Check every timed outcome against its identity's reference.
    std::map<std::string, Reference> refs;
    std::map<std::string, const serve::JobSpec *> bySource;
    for (size_t i = 0; i < kIdentities; ++i)
        bySource[specs[i].source] = &specs[i];
    std::vector<double> latMs, waitMs, execMs;
    std::map<std::string, size_t> execCount; // source -> executions
    std::map<std::string, serve::CacheKey> servedKey; // result-cache key
    std::set<std::string> unmapped;
    Cycles cycles = 0;
    size_t hits = 0, executed = 0, configHits = 0;
    SimCounts counts;
    for (const ClosedLoop::Done &d : loop.done) {
        const serve::JobResult &r = loop.results.at(d.id);
        const serve::JobSpec &spec = *bySource.at(r.source);
        if (!refs.count(r.source)) {
            Runner ref(spec.prog, spec.params);
            spec.load(ref);
            refs[r.source] = referenceFor(ref);
        }
        bool good = r.outcome &&
                    compareOutputs(spec.prog, refs[r.source], *r.outcome)
                        .empty();
        rep.tally.count(good);
        latMs.push_back(seconds(d.doneNs - d.submitNs) * 1e3);
        waitMs.push_back(r.waitUs * 1e-3);
        execMs.push_back(r.execUs * 1e-3);
        if (r.outcome) {
            cycles += r.outcome->cycles;
            const std::string &oc = r.outcome->outcome;
            if (oc == statusCodeName(StatusCode::kCompileError) ||
                oc == statusCodeName(StatusCode::kValidationError))
                unmapped.insert(spec.prog.name);
        }
        servedKey[r.source] = {r.pirHash, r.archHash, r.inputsHash,
                               r.optionsHash};
        if (r.resultHit) {
            ++hits;
        } else {
            ++executed;
            configHits += r.configHit ? 1 : 0;
            ++execCount[r.source];
            if (r.outcome)
                counts.add(r.outcome->stats);
        }
    }

    // Routed hops of the served programs' configs, compiled here with
    // the same defaults the server's config-miss path uses.
    uint64_t hops = 0;
    std::set<std::string> programs;
    for (size_t i = 0; i < kIdentities; ++i) {
        if (!programs.insert(specs[i].prog.name).second)
            continue;
        Runner r(specs[i].prog, specs[i].params);
        if (r.tryCompile().ok())
            hops += r.report().routedHops;
    }

    std::map<std::string, double> layers;
    counts.report(layers);
    layers["serve.latency_p50_ms"] = pctOrDie(latMs, 50, "latency");
    layers["serve.latency_p99_ms"] = pctOrDie(latMs, 99, "latency");
    layers["serve.queue_wait_ms_p50"] = pctOrDie(waitMs, 50, "queue wait");
    layers["serve.queue_wait_ms_p99"] = pctOrDie(waitMs, 99, "queue wait");
    layers["serve.exec_ms_p50"] = pctOrDie(execMs, 50, "exec");
    layers["serve.exec_ms_p99"] = pctOrDie(execMs, 99, "exec");
    layers["serve.result_hit_frac"] = double(hits) / loop.done.size();
    layers["serve.config_hit_frac"] =
        executed ? double(configHits) / executed : 0.0;
    layers["serve.result_evictions"] =
        static_cast<double>(loop.after.evictions - loop.before.evictions);
    rep.lines.push_back(strfmt(
        "timed jobs=%zu latency samples=%zu p50=%.3f ms p99=%.3f ms "
        "result hits=%zu executed=%zu",
        loop.done.size(), latMs.size(), layers["serve.latency_p50_ms"],
        layers["serve.latency_p99_ms"], hits, executed));

    if (opt.trace) {
        // The same loop again on a fresh deployment, with a span per
        // job from submit to result, for the tracing overhead.
        SpanRecorder rec;
        double s = 0;
        rig = serveSetup(specs, s);
        ServeLoop traced = serveTimed(*rig, specs);
        rig.reset();
        for (size_t k = 0; k < traced.done.size(); ++k) {
            Span sp;
            sp.name = "serve.job";
            sp.job = traced.done[k].id;
            sp.beginNs = traced.done[k].submitNs;
            sp.endNs = traced.done[k].doneNs;
            sp.track = 1 + static_cast<uint32_t>(k % kOutstanding);
            rec.setWeight(rec.add(sp), 0.0); // shown, not attributed
        }
        layers["trace.overhead_frac"] = traced.wallS / loop.wallS - 1.0;

        // Replay each executed identity's worker path on this thread
        // through the same public calls, weighted by how often the
        // timed loop executed it: compile once (the warm-up's config
        // misses), then stage, hash, simulate, read back, hash.
        std::map<std::string, std::shared_ptr<const compiler::MapResult>>
            configs;
        int32_t setupRoot = rec.open("setup", 0);
        for (const auto &[src, count] : execCount) {
            const serve::JobSpec &spec = *bySource.at(src);
            if (configs.count(spec.prog.name))
                continue;
            compiler::MapResult mr;
            if (tracedCompile(rec, spec.prog, spec.params, 0, mr).ok())
                configs[spec.prog.name] =
                    std::make_shared<const compiler::MapResult>(
                        std::move(mr));
        }
        rec.close(setupRoot);
        uint64_t id = 0;
        for (const auto &[src, count] : execCount) {
            const serve::JobSpec &spec = *bySource.at(src);
            auto cfg = configs.find(spec.prog.name);
            if (cfg == configs.end())
                continue;
            ++id;
            int32_t root = rec.open("serve.exec", id);
            rec.setWeight(root, static_cast<double>(count));
            std::unique_ptr<Runner> runner;
            {
                Scope st(&rec, "runtime.stage", id);
                runner = std::make_unique<Runner>(spec.prog, spec.params,
                                                  sopts.simOpts);
                spec.load(*runner);
            }
            serve::CacheKey key;
            {
                Scope h(&rec, "serve.hash", id);
                key = {serve::hashProgram(spec.prog),
                       serve::hashArch(spec.params),
                       serve::hashInputs(runner->hostBuffers()),
                       serve::hashOptions(sopts, spec)};
            }
            runner->adoptCompiled(cfg->second);
            Cycles mc = spec.maxCycles ? spec.maxCycles : sopts.maxCycles;
            TracedRun tr = tracedRun(rec, *runner, id, mc);
            serve::JobOutcome out;
            {
                Scope rb(&rec, "serve.readback", id);
                out = outcomeOf(spec.prog, tr.status, tr.result,
                                [&](pir::MemId m) {
                                    return tr.readDram(*runner, m);
                                });
            }
            {
                Scope h(&rec, "serve.hash", id);
                out.resultHash = serve::hashOutcome(out);
            }
            rec.close(root);
            // The replay must form the worker's cache key and outputs.
            rep.tally.count(
                key == servedKey.at(src) &&
                compareOutputs(spec.prog, refs.at(src), out).empty());
        }
        reportLayers(rec, layers);
        writeTrace(opt, rec);
    }

    const size_t nprog = programs.size();
    double wallS = loop.wallS;
    finish(opt, rep,
           {{"wall_s", wallS, "s"},
            {"setup_s", mean(setupS), "s"},
            {"sim_mcycles_per_s", cycles / wallS / 1e6, "Mcycles/s"},
            {"sim_cycles", static_cast<double>(cycles), "cycles"},
            {"ok_frac", rep.tally.okFrac(), "ratio"},
            {"mapped_frac", double(nprog - unmapped.size()) / nprog,
             "ratio"},
            {"routed_hops", static_cast<double>(hops), "hops"},
            {"peak_rss_mb", peakRssMb(), "MB"}},
           layers);
    return true;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sim-stream", "sim-onchip", "serve-mixed", "compile-sweep"};
    return names;
}

bool
runWorkload(const Options &opt, Report &rep)
{
    if (opt.workload == "sim-stream")
        return simWorkload(opt, kStreamApps, kStreamPassS,
                           kStreamSetupsPerPass, rep);
    if (opt.workload == "sim-onchip")
        return simWorkload(opt, kOnchipApps, kOnchipPassS,
                           kOnchipSetupsPerPass, rep);
    if (opt.workload == "serve-mixed")
        return serveMixed(opt, rep);
    if (opt.workload == "compile-sweep")
        return compileSweep(opt, rep);
    return false;
}

} // namespace plasbench

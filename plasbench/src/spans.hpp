/**
 * @file
 * The traced run's span recorder. Spans are recorded by the benchmark
 * around its calls into each layer's public entry point, kept in
 * memory, and written once at exit as Chrome trace-event JSON. A
 * layer's time is the self time of its spans: duration minus the part
 * of the interval its child spans cover.
 */

#ifndef PLASBENCH_SPANS_HPP
#define PLASBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace plasbench
{

struct Span
{
    const char *name = ""; ///< static layer label ("sim.run")
    uint64_t beginNs = 0;  ///< steady_clock nanoseconds
    uint64_t endNs = 0;
    int32_t parent = -1; ///< index of the enclosing span; -1 for a root
    uint64_t job = 0;    ///< the job the span works for (0 = none)
    /** Scale applied to the layer totals of this root's tree (roots
     *  only): 1/passes for a traced pass, or how many times a replayed
     *  serve identity executed. */
    double weight = 1.0;
    uint32_t track = 0; ///< display row in the trace viewer
};

/** steady_clock now, in nanoseconds. */
uint64_t nowNs();

class SpanRecorder
{
  public:
    /** Open a span under the innermost open one. */
    int32_t open(const char *name, uint64_t job);
    void close(int32_t idx);
    /** Append an already finished span below `parent` (or a root with
     *  -1). Used for the library's own phase spans and for serve job
     *  spans that overlap each other. */
    int32_t add(const Span &s);
    void setWeight(int32_t root, double w) { spans_.at(root).weight = w; }

    /**
     * Import the library profiler's phase spans recorded on this thread
     * since its last clear() as children of `parent`, renaming each
     * phase listed in `rename` (others are skipped).
     */
    void importProfilerSpans(int32_t parent,
                             const std::map<std::string, const char *>
                                 &rename);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON (complete "X" events, microseconds). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<int32_t> openStack_;
};

/** Self time (seconds) of each span: its duration minus the union of
 *  its children's intervals, clipped to its own. */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/** Per layer name: sum over spans of self time x the weight of the
 *  span's root. */
std::map<std::string, double> layerSeconds(const std::vector<Span> &spans);

/** RAII span; a null recorder makes it a no-op (the untraced run). */
class Scope
{
  public:
    Scope(SpanRecorder *rec, const char *name, uint64_t job = 0)
        : rec_(rec), idx_(rec ? rec->open(name, job) : -1)
    {
    }
    ~Scope()
    {
        if (rec_)
            rec_->close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int32_t index() const { return idx_; }

  private:
    SpanRecorder *rec_;
    int32_t idx_;
};

} // namespace plasbench

#endif // PLASBENCH_SPANS_HPP

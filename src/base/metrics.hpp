/**
 * @file
 * The unified telemetry metric model. StatSet (stats.hpp) remains the
 * low-overhead per-run counter sink the simulator fills; MetricRegistry
 * is the layer above it: a typed registry of counters, gauges and
 * fixed-bucket histograms with two stable expositions (flat JSON and
 * Prometheus-style text) that every tool — bench drivers, trace_app,
 * run manifests, the future serve daemon — reports through.
 *
 * Semantics (tested in tests/test_telemetry.cpp):
 *
 *   counter    monotonically increasing uint64; increments wrap modulo
 *              2^64 (unsigned arithmetic, never UB);
 *   gauge      a last-written int64 sample;
 *   histogram  fixed ascending bucket upper edges chosen at creation.
 *              observe(v) lands in the FIRST bucket with v <= edge[i]
 *              (a value exactly on an edge belongs to that edge's
 *              bucket); v > edge[last] lands in the overflow bucket.
 *              The text exposition is cumulative ("le" counts), the
 *              JSON exposition per-bucket.
 *
 * Metric names are dotted identifiers ("compile.route.rounds"); the
 * Prometheus exposition rewrites dots to underscores and prefixes
 * "plast_". Registries are cheap value types: a run harvests one,
 * serializes it, and drops it.
 */

#ifndef PLAST_BASE_METRICS_HPP
#define PLAST_BASE_METRICS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace plast
{

class Histogram
{
  public:
    Histogram() = default;
    /** Edges must be strictly ascending; an empty edge list gives a
     *  single overflow bucket (pure count/sum). */
    explicit Histogram(std::vector<uint64_t> edges);

    void observe(uint64_t v);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    const std::vector<uint64_t> &edges() const { return edges_; }
    /** Per-bucket (non-cumulative) counts; back() is the overflow
     *  bucket (> edges().back()). */
    const std::vector<uint64_t> &buckets() const { return buckets_; }
    /** Cumulative count of observations <= edges()[i]. */
    uint64_t cumulative(size_t i) const;

  private:
    std::vector<uint64_t> edges_;
    std::vector<uint64_t> buckets_; ///< edges_.size() + 1 (overflow)
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
};

class MetricRegistry
{
  public:
    /** Add delta to a counter (created at zero on first use). */
    void
    count(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta; // wraps mod 2^64 by design
    }

    void
    setCounter(const std::string &name, uint64_t value)
    {
        counters_[name] = value;
    }

    /** Record a gauge sample (last write wins). */
    void
    gauge(const std::string &name, int64_t value)
    {
        gauges_[name] = value;
    }

    /** Get-or-create a histogram. Edges are fixed on first creation;
     *  a second call with different edges is a caller bug (fatal). */
    Histogram &histogram(const std::string &name,
                         const std::vector<uint64_t> &edges);

    uint64_t counterValue(const std::string &name) const;
    bool hasCounter(const std::string &name) const
    {
        return counters_.count(name) != 0;
    }
    int64_t gaugeValue(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, int64_t> &gauges() const
    {
        return gauges_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Flat JSON object, keys sorted (stable schema). Counters and
     * gauges are plain numbers; a histogram at name H appears as
     * "H.bucket.le_<edge>", "H.bucket.overflow", "H.count", "H.sum"
     * (per-bucket counts, not cumulative).
     */
    void writeJson(std::ostream &os) const;

    /** Prometheus text exposition format (# TYPE lines, cumulative
     *  histogram "le" buckets, "+Inf" terminal bucket). */
    void writePrometheus(std::ostream &os) const;

    void
    clear()
    {
        counters_.clear();
        gauges_.clear();
        histograms_.clear();
    }

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, int64_t> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace plast

#endif // PLAST_BASE_METRICS_HPP

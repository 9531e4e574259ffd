/**
 * @file
 * The one metrics registry. The simulator (Fabric::dumpStats), the
 * bench drivers, run manifests, the power model, trace_app and the
 * serve daemon all report through a StatSet: uint64 counters under
 * dotted names ("pcu03.activeCycles"), plus gauges and fixed-bucket
 * histograms, with two stable expositions.
 *
 * Semantics (tested in tests/test_telemetry.cpp):
 *
 *   counter    uint64; increments wrap modulo 2^64 (unsigned
 *              arithmetic, never UB);
 *   gauge      a last-written int64 sample;
 *   histogram  fixed ascending bucket upper edges chosen at creation.
 *              observe(v) lands in the FIRST bucket with v <= edge[i]
 *              (a value exactly on an edge belongs to that edge's
 *              bucket); v > edge[last] lands in the overflow bucket.
 *              The text exposition is cumulative ("le" counts), the
 *              JSON exposition per-bucket.
 *
 * Names are dotted identifiers (no JSON escapes needed); the
 * Prometheus exposition rewrites dots to underscores and prefixes
 * "plast_".
 */

#ifndef PLAST_BASE_STATS_HPP
#define PLAST_BASE_STATS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
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

class StatSet
{
  public:
    /** Add delta to the named counter (created at zero on first use). */
    void
    add(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta; // wraps mod 2^64 by design
    }

    void
    set(const std::string &name, uint64_t value)
    {
        counters_[name] = value;
    }

    uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    bool
    has(const std::string &name) const
    {
        return counters_.count(name) != 0;
    }

    /** Every counter, keys sorted. */
    const std::map<std::string, uint64_t> &all() const { return counters_; }

    /** Record a gauge sample (last write wins). */
    void
    gauge(const std::string &name, int64_t value)
    {
        gauges_[name] = value;
    }
    int64_t gaugeValue(const std::string &name) const;

    /** Get-or-create a histogram. Edges are fixed on first creation;
     *  a second call with different edges is a caller bug (panic). */
    Histogram &histogram(const std::string &name,
                         const std::vector<uint64_t> &edges);
    const Histogram *findHistogram(const std::string &name) const;

    /** String fields the JSON writer puts first, in order. */
    using Meta = std::vector<std::pair<std::string, std::string>>;

    /**
     * One flat JSON object: the `meta` strings first, then every
     * metric, keys sorted (stable schema). Counters and gauges are
     * plain numbers; a histogram at name H appears as
     * "H.bucket.le_<edge>", "H.bucket.overflow", "H.count", "H.sum"
     * (per-bucket counts, not cumulative).
     */
    void writeJson(std::ostream &os, const Meta &meta = {}) const;

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

#endif // PLAST_BASE_STATS_HPP

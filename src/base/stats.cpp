#include "base/stats.hpp"

#include <algorithm>

#include "base/logging.hpp"

namespace plast
{

Histogram::Histogram(std::vector<uint64_t> edges)
    : edges_(std::move(edges)), buckets_(edges_.size() + 1, 0)
{
    for (size_t i = 1; i < edges_.size(); ++i)
        panic_if(edges_[i] <= edges_[i - 1],
                 "histogram edges must be strictly ascending");
}

void
Histogram::observe(uint64_t v)
{
    // First bucket with v <= edge[i]; upper_bound on (v - 1) would
    // mishandle v == 0, so use lower_bound: the first edge >= v.
    size_t i = std::lower_bound(edges_.begin(), edges_.end(), v) -
               edges_.begin();
    ++buckets_[i]; // i == edges_.size() is the overflow bucket
    ++count_;
    sum_ += v;
}

uint64_t
Histogram::cumulative(size_t i) const
{
    uint64_t c = 0;
    for (size_t b = 0; b <= i && b < buckets_.size(); ++b)
        c += buckets_[b];
    return c;
}

int64_t
StatSet::gaugeValue(const std::string &name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second;
}

Histogram &
StatSet::histogram(const std::string &name,
                   const std::vector<uint64_t> &edges)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(edges)).first;
    else
        panic_if(it->second.edges() != edges,
                 "histogram '%s' re-created with different edges",
                 name.c_str());
    return it->second;
}

const Histogram *
StatSet::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
StatSet::writeJson(std::ostream &os, const Meta &meta) const
{
    // One sorted key space: materialize histogram components as flat
    // entries, then merge-emit with counters and gauges.
    std::map<std::string, std::string> flat;
    for (const auto &[name, value] : counters_)
        flat[name] = std::to_string(value);
    for (const auto &[name, value] : gauges_)
        flat[name] = std::to_string(value);
    for (const auto &[name, h] : histograms_) {
        const auto &edges = h.edges();
        const auto &buckets = h.buckets();
        for (size_t i = 0; i < edges.size(); ++i)
            flat[name + ".bucket.le_" + std::to_string(edges[i])] =
                std::to_string(buckets[i]);
        flat[name + ".bucket.overflow"] = std::to_string(buckets.back());
        flat[name + ".count"] = std::to_string(h.count());
        flat[name + ".sum"] = std::to_string(h.sum());
    }
    const char *sep = "\n";
    os << "{";
    for (const auto &[name, text] : meta) {
        os << sep << "  \"" << name << "\": \"" << jsonEscape(text) << "\"";
        sep = ",\n";
    }
    for (const auto &[name, value] : flat) {
        os << sep << "  \"" << name << "\": " << value;
        sep = ",\n";
    }
    os << "\n}\n";
}

namespace
{

/** Dots (and any other non-identifier char) become underscores. */
std::string
promName(const std::string &name)
{
    std::string out = "plast_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

void
StatSet::writePrometheus(std::ostream &os) const
{
    for (const auto &[name, value] : counters_) {
        std::string n = promName(name);
        os << "# TYPE " << n << " counter\n" << n << " " << value << "\n";
    }
    for (const auto &[name, value] : gauges_) {
        std::string n = promName(name);
        os << "# TYPE " << n << " gauge\n" << n << " " << value << "\n";
    }
    for (const auto &[name, h] : histograms_) {
        std::string n = promName(name);
        os << "# TYPE " << n << " histogram\n";
        const auto &edges = h.edges();
        for (size_t i = 0; i < edges.size(); ++i) {
            os << n << "_bucket{le=\"" << edges[i] << "\"} "
               << h.cumulative(i) << "\n";
        }
        os << n << "_bucket{le=\"+Inf\"} " << h.count() << "\n";
        os << n << "_sum " << h.sum() << "\n";
        os << n << "_count " << h.count() << "\n";
    }
}

} // namespace plast

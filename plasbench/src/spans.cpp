#include "spans.hpp"

#include <algorithm>
#include <chrono>

#include "base/logging.hpp"
#include "base/profile.hpp"

namespace plasbench
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int32_t
SpanRecorder::open(const char *name, uint64_t job)
{
    Span s;
    s.name = name;
    s.job = job;
    s.parent = openStack_.empty() ? -1 : openStack_.back();
    auto idx = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
    openStack_.push_back(idx);
    spans_.back().beginNs = nowNs();
    return idx;
}

void
SpanRecorder::close(int32_t idx)
{
    uint64_t t = nowNs();
    panic_if(openStack_.empty() || openStack_.back() != idx,
             "span %d closed out of order", idx);
    openStack_.pop_back();
    spans_[idx].endNs = t;
}

int32_t
SpanRecorder::add(const Span &s)
{
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
}

void
SpanRecorder::importProfilerSpans(
    int32_t parent, const std::map<std::string, const char *> &rename)
{
    // The profiler counts microseconds from its own epoch on the same
    // steady clock; anchor that epoch on ours (sub-microsecond error,
    // absorbed by clipping children to the parent).
    plast::HostProfiler &prof = plast::HostProfiler::instance();
    uint64_t epochNs = nowNs() - prof.nowUs() * 1000;
    uint32_t tid = plast::HostProfiler::currentTid();
    const Span p = spans_.at(parent); // copied: add() may reallocate
    for (const plast::HostProfiler::Span &hs : prof.spans()) {
        auto it = rename.find(hs.name);
        if (hs.tid != tid || it == rename.end())
            continue;
        Span s;
        s.name = it->second;
        s.parent = parent;
        s.job = p.job;
        s.track = p.track;
        s.beginNs = std::clamp(epochNs + hs.beginUs * 1000, p.beginNs,
                               p.endNs);
        s.endNs = std::clamp(epochNs + hs.endUs * 1000, s.beginNs, p.endNs);
        add(s);
    }
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[s.parent].push_back({s.beginNs, s.endNs});
    }
    std::vector<double> out(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cursor = p.beginNs;
        for (auto [b, e] : iv) {
            b = std::max(b, cursor);
            e = std::min(e, p.endNs);
            if (e > b) {
                covered += e - b;
                cursor = e;
            }
        }
        uint64_t dur = p.endNs > p.beginNs ? p.endNs - p.beginNs : 0;
        out[i] = static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
    }
    return out;
}

std::map<std::string, double>
layerSeconds(const std::vector<Span> &spans)
{
    // Parents precede their children, so roots resolve in one pass.
    std::vector<size_t> root(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        root[i] = spans[i].parent < 0 ? i : root[spans[i].parent];
    std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i] * spans[root[i]].weight;
    return out;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    uint64_t t0 = spans_.empty() ? 0 : spans_.front().beginNs;
    for (const Span &s : spans_)
        t0 = std::min(t0, s.beginNs);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n")
           << plast::strfmt(
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"job\":%llu}}",
                  s.name, s.track, (s.beginNs - t0) * 1e-3,
                  (s.endNs - s.beginNs) * 1e-3, i, s.parent,
                  static_cast<unsigned long long>(s.job));
    }
    os << "\n]}\n";
}

} // namespace plasbench

#include "base/trace.hpp"

#include "base/logging.hpp"
#include "base/profile.hpp"

namespace plast
{

const char *
traceNameStr(TraceName n)
{
    switch (n) {
      case TraceName::kRun:
        return "run";
      case TraceName::kWavefront:
        return "wavefront";
      case TraceName::kIteration:
        return "iteration";
      case TraceName::kDramCmd:
        return "dram-cmd";
      case TraceName::kBurst:
        return "burst";
      case TraceName::kTokens:
        return "tokens";
      case TraceName::kDone:
        return "done";
      case TraceName::kSleep:
        return "sleep";
      case TraceName::kWake:
        return "wake";
      case TraceName::kOccupancy:
        return "occupancy";
      case TraceName::kActiveSet:
        return "active-set";
      case TraceName::kOutstanding:
        return "outstanding";
      case TraceName::kCount:
        break;
    }
    return "?";
}

TraceSink::TraceSink(size_t capacity) : cap_(capacity == 0 ? 1 : capacity)
{
    buf_.reserve(cap_ < (1u << 16) ? cap_ : (1u << 16));
}

uint16_t
TraceSink::addTrack(const std::string &name)
{
    panic_if(tracks_.size() >= 0xffff, "trace track table overflow");
    tracks_.push_back(name);
    return static_cast<uint16_t>(tracks_.size() - 1);
}

size_t
TraceSink::size() const
{
    return wrapped_ ? cap_ : buf_.size();
}

void
TraceSink::writeChromeJson(std::ostream &os,
                           const HostProfiler *host) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
          "\"args\":{\"name\":\"fabric (simulated cycles as us)\"}}";

    // Track metadata: one "thread" per track, sorted by track id.
    for (size_t t = 0; t < tracks_.size(); ++t) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
           << t << ",\"args\":{\"name\":\"" << jsonEscape(tracks_[t])
           << "\"}}";
    }

    forEach([&](const Event &e) {
        const char *nm = traceNameStr(e.name);
        switch (e.kind) {
          case Kind::kSpan:
            sep();
            os << "{\"ph\":\"X\",\"name\":\"" << nm
               << "\",\"pid\":1,\"tid\":" << e.track << ",\"ts\":" << e.ts
               << ",\"dur\":" << e.aux << "}";
            break;
          case Kind::kAsync:
            // Async begin/end pair; id scoped per track so concurrent
            // intervals on one track render as parallel lanes.
            sep();
            os << "{\"ph\":\"b\",\"cat\":\"" << nm << "\",\"name\":\""
               << nm << "\",\"pid\":1,\"tid\":" << e.track
               << ",\"id\":" << e.aux2 << ",\"ts\":" << e.ts << "}";
            sep();
            os << "{\"ph\":\"e\",\"cat\":\"" << nm << "\",\"name\":\""
               << nm << "\",\"pid\":1,\"tid\":" << e.track
               << ",\"id\":" << e.aux2 << ",\"ts\":" << (e.ts + e.aux)
               << "}";
            break;
          case Kind::kInstant:
            sep();
            os << "{\"ph\":\"i\",\"name\":\"" << nm
               << "\",\"pid\":1,\"tid\":" << e.track << ",\"ts\":" << e.ts
               << ",\"s\":\"t\"}";
            break;
          case Kind::kCounter:
            sep();
            os << "{\"ph\":\"C\",\"name\":\"" << nm << " #" << e.track
               << "\",\"pid\":1,\"ts\":" << e.ts << ",\"args\":{\"value\":"
               << e.aux << "}}";
            break;
        }
    });

    if (host)
        writeHostSpansJson(os, *host);

    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"dropped\":" << dropped_ << ",\"tracks\":" << tracks_.size()
       << "}}\n";
}

} // namespace plast

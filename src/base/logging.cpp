#include "base/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace plast
{

namespace
{
// Atomic: the serve daemon's workers consult the flag while a test
// harness (or the daemon's own quiet mode) may flip it concurrently.
std::atomic<bool> gVerbose{true};
} // namespace

void
setVerbose(bool verbose)
{
    gVerbose.store(verbose, std::memory_order_relaxed);
}

bool
verbose()
{
    return gVerbose.load(std::memory_order_relaxed);
}

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrfmt(fmt, ap);
    va_end(ap);
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (gVerbose.load(std::memory_order_relaxed))
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace plast

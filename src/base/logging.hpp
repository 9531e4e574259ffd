/**
 * @file
 * Logging and error-reporting helpers in the gem5 style.
 *
 * panic()  — a simulator bug: something that should never happen
 *            regardless of user input. Aborts.
 * fatal()  — a user error (bad configuration, unmappable program, ...).
 *            Exits with an error code.
 * warn()   — functionality that may be imprecise but lets the run continue.
 * inform() — status messages.
 */

#ifndef PLAST_BASE_LOGGING_HPP
#define PLAST_BASE_LOGGING_HPP

#include <cstdarg>
#include <cstdint>
#include <string>

namespace plast
{

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
std::string vstrfmt(const char *fmt, va_list ap);

/** `s` as a JSON string body: `"`, `\\`, newline and tab spelled out,
 *  other control characters as \u00XX. */
std::string jsonEscape(const std::string &s);

namespace detail
{
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
} // namespace detail

/** Enable/disable inform() output (benches quiet it down). */
void setVerbose(bool verbose);
bool verbose();

#define panic(...) \
    ::plast::detail::panicImpl(__FILE__, __LINE__, ::plast::strfmt(__VA_ARGS__))
#define fatal(...) \
    ::plast::detail::fatalImpl(__FILE__, __LINE__, ::plast::strfmt(__VA_ARGS__))
#define warn(...) ::plast::detail::warnImpl(::plast::strfmt(__VA_ARGS__))
#define inform(...) ::plast::detail::informImpl(::plast::strfmt(__VA_ARGS__))

#define panic_if(cond, ...)                   \
    do {                                      \
        if (cond) { panic(__VA_ARGS__); }     \
    } while (0)

#define fatal_if(cond, ...)                   \
    do {                                      \
        if (cond) { fatal(__VA_ARGS__); }     \
    } while (0)

} // namespace plast

#endif // PLAST_BASE_LOGGING_HPP

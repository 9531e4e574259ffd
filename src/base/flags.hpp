/**
 * @file
 * Command-line flags: a tool declares each flag once (name, value
 * kind, help line, destination) and one parser reads every tool's
 * command line by the same rules (DESIGN.md §3). `--name=value` and
 * `--name value` both work, switches are bare and positionals may sit
 * anywhere. Unsigned values are decimal or `0x`-hex with no sign and
 * doubles finite, both whole tokens (textio.hpp's parseNumber) inside
 * their bounds. `--help` prints the generated usage (exit 0); an error
 * prints one line naming the flag, then the usage (exit 2).
 */

#ifndef PLAST_BASE_FLAGS_HPP
#define PLAST_BASE_FLAGS_HPP

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/status.hpp"

namespace plast
{

/** "" when `v` is decimal or `0x`-hex in [lo, hi], else what is wrong. */
std::string parseUnsigned(const std::string &v, uint64_t &out,
                          uint64_t lo = 0, uint64_t hi = UINT64_MAX);

class FlagSet
{
  public:
    /** Stores one value; returns what is wrong with it, or "". */
    using Setter = std::function<std::string(const std::string &)>;

    /** `tool` starts every message; `synopsis` ends the usage line. */
    FlagSet(std::string tool, std::string synopsis);

    /** A value flag; `dflt` is shown in the usage unless "" or "0". */
    FlagSet &value(const char *name, const std::string &metavar,
                   const char *help, Setter set, std::string dflt = "");

    /** A bare `--name` stores `on`. */
    FlagSet &sw(const char *name, bool &dst, const char *help,
                bool on = true);

    template <std::unsigned_integral T>
    FlagSet &
    num(const char *name, T &dst, const char *help, T lo = 0,
        T hi = std::numeric_limits<T>::max())
    {
        auto set = [&dst, lo, hi](const std::string &v) {
            uint64_t u = 0;
            std::string err = parseUnsigned(v, u, lo, hi);
            if (err.empty())
                dst = static_cast<T>(u);
            return err;
        };
        return value(name, "N", help, set, std::to_string(dst));
    }

    /** A finite double in [0, hi], or (0, hi] when `positive`. */
    FlagSet &real(const char *name, double &dst, const char *help,
                  double hi = std::numeric_limits<double>::infinity(),
                  bool positive = false);

    FlagSet &str(const char *name, std::string &dst, const char *metavar,
                 const char *help);

    /** One of `words`, stored as the value paired with it. */
    template <class E>
    FlagSet &
    word(const char *name, E &dst,
         std::vector<std::pair<const char *, E>> words, const char *help)
    {
        std::string list, dflt;
        for (const auto &[w, e] : words) {
            list += (list.empty() ? "" : "|") + std::string(w);
            dflt = e == dst ? w : dflt;
        }
        auto set = [&dst, words, list](const std::string &v) {
            for (const auto &[w, e] : words) {
                if (v == w) {
                    dst = e;
                    return std::string();
                }
            }
            return "unknown word '" + v + "' (one of " + list + ")";
        };
        return value(name, list, help, set, dflt);
    }

    /** A comma list of unsigned numbers. */
    FlagSet &nums(const char *name, std::vector<uint64_t> &dst,
                  const char *help);

    /** What a bare `--name` of the last flag declared means
     *  (`--inject` is `--inject=1`); only `=` then gives another. */
    FlagSet &implicit(const char *v);

    /** The next positional; a required one must be given. */
    FlagSet &arg(const char *metavar, const char *help, Setter set,
                 bool required = true);
    FlagSet &arg(const char *metavar, std::string &dst, const char *help);
    /** Every remaining positional. */
    FlagSet &args(const char *metavar, std::vector<std::string> &dst,
                  const char *help);

    /** Parse argv[1..argc): kInvalidArgument naming the flag on the
     *  first error; `--help` stops the parse with ok. */
    Status tryParse(int argc, const char *const *argv);
    /** True when flag `name` (or "help") was on the command line. */
    bool given(const char *name) const { return given_.count(name) > 0; }
    std::string usage() const;

    /** tryParse, then the exit code when the tool should stop (0 after
     *  the usage for --help, 2 after the error and the usage), or
     *  nullopt when it should run. */
    std::optional<int> parse(int argc, char **argv);

  private:
    struct Flag
    {
        std::string name;    ///< without dashes; a positional's metavar
        std::string metavar; ///< "" for a switch
        std::string help;
        Setter set;
        std::string dflt;
        std::string implicit; ///< a bare value flag's value
        bool required = false; ///< positionals
        bool many = false;     ///< positionals: takes the rest
    };

    std::string tool_;
    std::string synopsis_;
    std::vector<Flag> flags_;
    std::vector<Flag> args_;
    std::set<std::string> given_;
};

} // namespace plast

#endif // PLAST_BASE_FLAGS_HPP

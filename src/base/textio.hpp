/**
 * @file
 * Token-text archives: one field walk writes and reads a text format.
 *
 * Each serialized structure has one `template <class Ar, Is<T> S>
 * void fields(Ar &ar, S &s)` walk listing its fields in file order, in
 * the style of stateio.hpp's io(). TextWriter runs the walk over a
 * const object and prints it; TextReader runs the same walk over a
 * fresh object and parses into it. Save and load cannot drift apart,
 * and the reader's checks (numbers, enum ranges, keywords) live here
 * once for every format.
 *
 * A document is whitespace-separated tokens, a line per record;
 * '#' at the start of a token comments out the rest of its line.
 * Inside a walk:
 *
 *  - `ar.line(tokens...)` is one line; `ar(tokens...)` continues it.
 *  - A token is a keyword (string literal; leading spaces indent it at
 *    the start of a line), a bool / integer / enum field (decimal; an
 *    enum must lie in `0..enumLast(E{})`), a `std::vector` (count, then
 *    each element inline), a wrapper below, or a struct with its own
 *    walk (inline).
 *  - `ar.list(kw, vec)` is a `kw N` line followed by each element's
 *    own lines.
 *  - `keyed(k, token)` glues `k=` to one token; `rest(s)` is the rest
 *    of the line, spaces and all.
 *
 * Walks live in their structure's namespace: the archives reach a
 * nested structure's walk by argument-dependent lookup.
 *
 * The bytes TextWriter prints are what the content hashes cover
 * (pirHash, configHash), so a walk's token order is its format.
 */

#ifndef PLAST_BASE_TEXTIO_HPP
#define PLAST_BASE_TEXTIO_HPP

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/logging.hpp"

namespace plast
{

/** `T` is `U` or `const U`: the writer walks const objects. */
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/** A name as one token: whitespace folds to '_', and `empty` stands
 *  for the empty name. */
template <class S>
struct Name
{
    S &s;
    const char *empty;
};

/** A word spelled `0x1f`. */
template <class T>
struct Hex
{
    T &v;
};

/** A 64-bit content hash spelled as 16 zero-padded hex digits. */
template <class T>
struct Hash
{
    T &v;
};

/** `key=token`: a number, or a wrapper held by value. */
template <class T>
struct Keyed
{
    const char *key;
    T v;
};

/** The rest of the line, verbatim. */
template <class S>
struct Rest
{
    S &s;
};

template <class T> Hex<T> hex(T &v) { return {v}; }
template <class T> Hash<T> hash(T &v) { return {v}; }
template <class T> Keyed<T> keyed(const char *k, T &&v) { return {k, v}; }
template <class S> Rest<S> rest(S &s) { return {s}; }

/** The one rule for numbers in text (formats, seed headers, job logs,
 *  flags): all of `tok` is a T in `base` (a double: finite), with no
 *  '+' or space, a '-' only where T is signed, and inside T's range. */
template <class T>
bool
parseNumber(std::string_view tok, T &out, int base = 10)
{
    const char *last = tok.data() + tok.size();
    T v{};
    std::from_chars_result r;
    if constexpr (std::is_floating_point_v<T>)
        r = std::from_chars(tok.data(), last, v);
    else
        r = std::from_chars(tok.data(), last, v, base);
    bool good = r.ec == std::errc() && r.ptr == last && !tok.empty() &&
                std::isfinite(static_cast<long double>(v));
    if (good)
        out = v;
    return good;
}

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

class TextWriter
{
  public:
    static constexpr bool kSaving = true;

    explicit TextWriter(std::ostream &os) : os_(os) {}

    template <class... Ts>
    void
    operator()(const Ts &...ts)
    {
        (put(ts), ...);
    }

    template <class... Ts>
    void
    line(const Ts &...ts)
    {
        (*this)(ts...);
        os_ << '\n';
        atStart_ = true;
    }

    template <class T>
    void
    list(const char *kw, const std::vector<T> &v)
    {
        line(kw, v.size());
        for (const T &e : v)
            fields(*this, e);
    }

    /** `kw version`; the reader rejects any other version. */
    void version(const char *kw, int v) { line(kw, v); }

    /** Comment lines for human readers, verbatim. */
    void note(const std::string &text) { os_ << text; }

  private:
    std::ostream &
    token()
    {
        if (!atStart_)
            os_ << ' ';
        atStart_ = false;
        return os_;
    }

    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::is_convertible_v<const T &, const char *>) {
            token() << v;
        } else if constexpr (std::is_same_v<T, bool>) {
            token() << (v ? '1' : '0');
        } else if constexpr (std::is_enum_v<T> ||
                             (std::is_integral_v<T> && sizeof(T) == 1)) {
            token() << static_cast<int>(v);
        } else if constexpr (std::is_integral_v<T>) {
            token() << v;
        } else if constexpr (kIsVector<T>) {
            token() << v.size();
            for (const auto &e : v)
                put(e);
        } else {
            fields(*this, v);
        }
    }

    template <class S>
    void
    put(const Name<S> &n)
    {
        std::string t = n.s.empty() ? std::string(n.empty) : n.s;
        for (char &c : t)
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                c = '_';
        token() << t;
    }

    template <class T>
    void
    put(const Hex<T> &h)
    {
        char buf[24] = "0x";
        auto r = std::to_chars(buf + 2, buf + sizeof buf,
                               static_cast<uint64_t>(h.v), 16);
        token().write(buf, r.ptr - buf);
    }

    template <class T>
    void
    put(const Hash<T> &h)
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h.v));
        token() << buf;
    }

    template <class T>
    void
    put(const Keyed<T> &k)
    {
        token() << k.key << '=';
        atStart_ = true; // the value follows `=` with no space
        put(k.v);
    }

    template <class S>
    void
    put(const Rest<S> &r)
    {
        token() << r.s;
    }

    std::ostream &os_;
    bool atStart_ = true;
};

class TextReader
{
  public:
    static constexpr bool kSaving = false;

    explicit TextReader(std::istream &is) : buf_(is.rdbuf()) {}

    template <class... Ts>
    void
    operator()(Ts &&...ts)
    {
        (get(ts), ...);
    }

    /** Lines only matter to the writer: the reader takes tokens. */
    template <class... Ts>
    void
    line(Ts &&...ts)
    {
        (*this)(ts...);
    }

    template <class T>
    void
    list(const char *kw, std::vector<T> &v)
    {
        get(kw);
        getAll(v);
    }

    void
    version(const char *kw, int v)
    {
        int got = v;
        line(kw, got);
        if (ok() && got != v)
            fail(strfmt("unsupported %s version %d", kw, got));
    }

    void note(const std::string &) {}

    bool ok() const { return err_.empty(); }
    const std::string &error() const { return err_; }

    /** Latch the first failure; every later read is a no-op. */
    void
    fail(const std::string &msg)
    {
        if (ok())
            err_ = after_ ? strfmt("%s: %s", after_, msg.c_str()) : msg;
    }

  private:
    /** Next token, skipping whitespace and '#' comments. */
    bool
    next()
    {
        if (held_) {
            held_ = false;
            return ok();
        }
        tok_.clear();
        if (!ok())
            return false;
        for (int c = buf_->sgetc(); c != EOF; c = buf_->sgetc()) {
            if (std::isspace(c)) {
                buf_->sbumpc();
            } else if (c == '#') {
                while (c != EOF && c != '\n')
                    c = buf_->snextc();
            } else {
                while (c != EOF && !std::isspace(c)) {
                    tok_.push_back(static_cast<char>(c));
                    c = buf_->snextc();
                }
                return true;
            }
        }
        fail("unexpected end of input");
        return false;
    }

    /** Parse the token from `first` as a T; a bool is 0 or 1. */
    template <class T>
    bool
    parse(const char *first, T &out, int base = 10)
    {
        std::string_view tok(first, tok_.data() + tok_.size() - first);
        bool good;
        if constexpr (std::is_same_v<T, bool>) {
            uint8_t b = 2;
            good = parseNumber(tok, b, base) && b <= 1;
            out = b == 1;
        } else {
            good = parseNumber(tok, out, base);
        }
        if (!good)
            fail(strfmt("bad number '%s'", tok_.c_str()));
        return good;
    }

    void
    get(const char *kw)
    {
        while (*kw == ' ')
            ++kw;
        if (!next())
            return;
        if (tok_ != kw)
            fail(strfmt("expected '%s', got '%s'", kw, tok_.c_str()));
        after_ = kw;
    }

    template <class T>
    void
    get(T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            int64_t x = 0;
            if (!next() || !parse(tok_.data(), x))
                return;
            if (x < 0 || x > static_cast<int64_t>(enumLast(T{})))
                return fail(strfmt("value %lld out of range 0..%d",
                                   static_cast<long long>(x),
                                   static_cast<int>(enumLast(T{}))));
            v = static_cast<T>(x);
        } else if constexpr (std::is_integral_v<T>) {
            if (next())
                parse(tok_.data(), v);
        } else if constexpr (kIsVector<T>) {
            getAll(v);
        } else {
            fields(*this, v);
        }
    }

    /** A count, then that many elements (read one by one, so a bogus
     *  count fails at the end of input instead of allocating). */
    template <class T>
    void
    getAll(std::vector<T> &v)
    {
        uint64_t n = 0;
        get(n);
        v.clear();
        while (ok() && v.size() < n) {
            if constexpr (std::is_class_v<T>)
                fields(*this, v.emplace_back());
            else
                get(v.emplace_back());
        }
    }

    template <class S>
    void
    get(Name<S> &n)
    {
        if (next())
            n.s = tok_ == n.empty ? std::string() : tok_;
    }

    template <class T>
    void
    get(Hex<T> &h)
    {
        if (!next())
            return;
        if (tok_.compare(0, 2, "0x") != 0)
            return fail(strfmt("expected 0x-hex, got '%s'", tok_.c_str()));
        parse(tok_.data() + 2, h.v, 16);
    }

    template <class T>
    void
    get(Hash<T> &h)
    {
        if (next())
            parse(tok_.data(), h.v, 16);
    }

    template <class T>
    void
    get(Keyed<T> &k)
    {
        if (!next())
            return;
        std::string key = std::string(k.key) + '=';
        if (tok_.compare(0, key.size(), key) != 0)
            return fail(strfmt("expected '%s', got '%s'", key.c_str(),
                               tok_.c_str()));
        tok_.erase(0, key.size());
        held_ = true; // the value is the rest of this token
        after_ = k.key;
        get(k.v);
    }

    template <class S>
    void
    get(Rest<S> &r)
    {
        if (!next())
            return;
        for (int c = buf_->sgetc(); c != EOF && c != '\n'; c = buf_->snextc())
            tok_.push_back(static_cast<char>(c));
        r.s = tok_;
    }

    std::streambuf *buf_;
    std::string tok_;
    std::string err_;
    const char *after_ = nullptr; ///< last keyword, for messages
    bool held_ = false; ///< next() returns tok_ as it stands
};

} // namespace plast

#endif // PLAST_BASE_TEXTIO_HPP

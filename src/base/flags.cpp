#include "base/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "base/logging.hpp"
#include "base/textio.hpp"

namespace plast
{

std::string
parseUnsigned(const std::string &v, uint64_t &out, uint64_t lo, uint64_t hi)
{
    bool hex = v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
    std::string_view digits = std::string_view(v).substr(hex ? 2 : 0);
    bool good = parseNumber(digits, out, hex ? 16 : 10);
    if (!good && (digits.empty() ||
                  digits.find_first_not_of(hex ? "0123456789abcdefABCDEF"
                                               : "0123456789") !=
                      std::string_view::npos))
        return strfmt("'%s' is not an unsigned number", v.c_str());
    if (!good || out < lo || out > hi)
        return strfmt("%s is out of range [%llu, %llu]", v.c_str(),
                      static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(hi));
    return "";
}

FlagSet::FlagSet(std::string tool, std::string synopsis)
    : tool_(std::move(tool)), synopsis_(std::move(synopsis))
{
}

FlagSet &
FlagSet::value(const char *name, const std::string &metavar,
               const char *help, Setter set, std::string dflt)
{
    Flag &f = flags_.emplace_back();
    f.name = name;
    f.metavar = metavar;
    f.help = help;
    f.set = std::move(set);
    f.dflt = std::move(dflt);
    return *this;
}

FlagSet &
FlagSet::sw(const char *name, bool &dst, const char *help, bool on)
{
    return value(name, "", help, [&dst, on](const std::string &) {
        dst = on;
        return "";
    });
}

FlagSet &
FlagSet::real(const char *name, double &dst, const char *help, double hi,
              bool positive)
{
    auto set = [&dst, hi, positive](const std::string &v) {
        double d = 0;
        if (!parseNumber(v, d))
            return strfmt("'%s' is not a finite number", v.c_str());
        if (d < 0 || (positive && d == 0) || d > hi)
            return strfmt("%s is out of range %c0, %g]", v.c_str(),
                          positive ? '(' : '[', hi);
        dst = d;
        return std::string();
    };
    return value(name, "F", help, set, strfmt("%g", dst));
}

FlagSet &
FlagSet::str(const char *name, std::string &dst, const char *metavar,
             const char *help)
{
    auto set = [&dst](const std::string &v) {
        dst = v;
        return "";
    };
    return value(name, metavar, help, set, dst);
}

FlagSet &
FlagSet::nums(const char *name, std::vector<uint64_t> &dst,
              const char *help)
{
    return value(name, "N,N,...", help, [&dst](const std::string &v) {
        std::vector<uint64_t> out;
        std::stringstream ss(v + ",");
        for (std::string item; std::getline(ss, item, ',');)
            if (std::string err = parseUnsigned(item, out.emplace_back());
                !err.empty())
                return err;
        dst = std::move(out);
        return std::string();
    });
}

FlagSet &
FlagSet::implicit(const char *v)
{
    flags_.back().implicit = v;
    flags_.back().metavar = "[=" + flags_.back().metavar + "]";
    return *this;
}

FlagSet &
FlagSet::arg(const char *metavar, const char *help, Setter set,
             bool required)
{
    std::swap(flags_, args_); // a positional is a Flag kept in args_
    value(metavar, metavar, help, std::move(set));
    std::swap(flags_, args_);
    args_.back().required = required;
    return *this;
}

FlagSet &
FlagSet::arg(const char *metavar, std::string &dst, const char *help)
{
    return arg(metavar, help, [&dst](const std::string &v) {
        dst = v;
        return "";
    });
}

FlagSet &
FlagSet::args(const char *metavar, std::vector<std::string> &dst,
              const char *help)
{
    auto add = [&dst](const std::string &v) {
        dst.push_back(v);
        return "";
    };
    arg(metavar, help, add, false).args_.back().many = true;
    return *this;
}

Status
FlagSet::tryParse(int argc, const char *const *argv)
{
    auto bad = [](const std::string &msg) {
        return Status(StatusCode::kInvalidArgument, msg);
    };
    size_t nextArg = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            given_.insert("help");
            return Status();
        }
        if (a.size() < 2 || a[0] != '-') {
            if (nextArg == args_.size())
                return bad("unexpected argument '" + a + "'");
            Flag &p = args_[nextArg];
            nextArg += p.many ? 0 : 1;
            if (std::string err = p.set(a); !err.empty())
                return bad("<" + p.name + ">: " + err);
            given_.insert("<" + p.name + ">");
            continue;
        }
        size_t eq = a.find('=');
        std::string flag = a.substr(0, eq);
        auto f = std::find_if(flags_.begin(), flags_.end(), [&](auto &x) {
            return "--" + x.name == flag;
        });
        if (f == flags_.end())
            return bad("unknown flag '" + flag + "'");
        bool sw = f->metavar.empty();
        if (sw && eq != std::string::npos)
            return bad(flag + " takes no value");
        std::string v;
        if (eq != std::string::npos)
            v = a.substr(eq + 1);
        else if (!f->implicit.empty())
            v = f->implicit;
        else if (!sw && i + 1 < argc &&
                 std::string(argv[i + 1]).compare(0, 2, "--") != 0)
            v = argv[++i];
        if (!sw && v.empty())
            return bad(flag + " needs a value");
        if (std::string err = f->set(v); !err.empty())
            return bad(flag + ": " + err);
        given_.insert(f->name);
    }
    for (const Flag &p : args_)
        if (p.required && !given_.count("<" + p.name + ">"))
            return bad("missing <" + p.name + ">");
    return Status();
}

std::string
FlagSet::usage() const
{
    std::vector<std::pair<std::string, const Flag *>> rows;
    for (const Flag &p : args_)
        rows.push_back({"<" + p.name + ">" + (p.many ? " ..." : ""), &p});
    for (const Flag &f : flags_) {
        bool eq = !f.metavar.empty() && f.implicit.empty();
        rows.push_back({"--" + f.name + (eq ? "=" : "") + f.metavar, &f});
    }
    Flag help;
    help.help = "print this help and exit";
    rows.push_back({"-h, --help", &help});
    size_t width = 0;
    for (const auto &row : rows)
        width = std::min<size_t>(std::max(width, row.first.size()), 24);
    std::string out = "usage: " + tool_ + " " + synopsis_ + "\n";
    for (const auto &[left, f] : rows) {
        std::string line = "  " + left;
        line.resize(std::max(line.size() + 2, width + 4), ' ');
        std::string text = f->help;
        if (!f->dflt.empty() && f->dflt != "0")
            text += " (default " + f->dflt + ")";
        // Wrap at 79 columns, continuing under the help column.
        std::istringstream words(text);
        bool first = true;
        for (std::string w; words >> w; first = false) {
            if (!first && line.size() + 1 + w.size() > 79) {
                out += line + "\n";
                line = std::string(width + 4, ' ') + w;
            } else {
                line += (first ? "" : " ") + w;
            }
        }
        out += line + "\n";
    }
    return out;
}

std::optional<int>
FlagSet::parse(int argc, char **argv)
{
    Status st = tryParse(argc, argv);
    if (given("help")) {
        std::fputs(usage().c_str(), stdout);
        return 0;
    }
    if (st.ok())
        return std::nullopt;
    std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), st.message().c_str(),
                 usage().c_str());
    return 2;
}

} // namespace plast

/**
 * @file
 * Command-line flags for the gnnmark and bench_diff tools: each flag is
 * declared once and bound to the field it writes; Command parses and
 * prints help from those declarations. Every usage error exits 2: an
 * unknown flag, a missing value, trailing garbage after a number, a
 * non-finite or out-of-range number, or wrong positional arguments.
 */

#ifndef GNNMARK_TOOLS_CLI_HH
#define GNNMARK_TOOLS_CLI_HH

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "base/string_utils.hh"

namespace gnnmark {
namespace cli {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Interval a numeric flag accepts, each end open or closed. */
struct Range
{
    double lo = -kInf;
    double hi = kInf;
    bool openLo = false;
    bool openHi = false;
};

constexpr Range atLeast(double lo) { return {lo, kInf, false, false}; }
constexpr Range above(double lo) { return {lo, kInf, true, true}; }
/** (lo, hi]. */
constexpr Range
aboveUpTo(double lo, double hi)
{
    return {lo, hi, true, false};
}

/** Convert all of `text` to a T in `range`; returns "" or the problem. */
template <typename T>
std::string
parseNumber(const std::string &text, T &out, Range range = {})
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    const double d = static_cast<double>(v);
    if (ec == std::errc() && ptr == end && std::isfinite(d) &&
        (range.openLo ? d > range.lo : d >= range.lo) &&
        (range.openHi ? d < range.hi : d <= range.hi)) {
        out = v;
        return "";
    }
    std::ostringstream problem;
    problem << "'" << text << "' is not "
            << (std::is_integral_v<T> ? "an integer" : "a number");
    if (std::isfinite(range.lo) || std::isfinite(range.hi))
        problem << " in " << (range.openLo ? "(" : "[") << range.lo << ", "
                << range.hi << (range.openHi ? ")" : "]");
    return problem.str();
}

/** Stores a flag's value; returns "" or the problem with it. */
using Setter = std::function<std::string(const std::string &)>;

/**
 * A flag, declared with its name, value placeholder (empty for a
 * switch), one help line and accepted range, then bound to the field
 * it writes with flag(field). A placeholder listing alternatives
 * ("a|b") admits only those; binding a bool makes a switch, or an
 * on|off flag. The help line shows the bound field's value as default
 * unless it is zero or empty.
 */
struct Flag
{
    std::string name;
    std::string meta;
    std::string help;
    Range range = {};
    Setter set = {};
    /** If set, the value is optional and a bare flag takes this one. */
    std::string implicitValue = {};

    template <typename T>
    Flag
    operator()(T &field) const
    {
        std::ostringstream shown;
        shown << field;
        return bind(field != T{}, shown.str(),
                    [&field, r = range](const std::string &v) {
                        return parseNumber(v, field, r);
                    });
    }

    Flag
    operator()(bool &field) const
    {
        return bind(!meta.empty(), field ? "on" : "off",
                    [&field, on_off = !meta.empty()](const std::string &v) {
                        field = !on_off || v == "on";
                        return std::string();
                    });
    }

    Flag
    operator()(std::string &field) const
    {
        return bind(!field.empty(), field, [&field](const std::string &v) {
            field = v;
            return std::string();
        });
    }

    /** This flag writing through `setter`, maybe showing a default. */
    Flag
    bind(bool show, const std::string &value, Setter setter) const
    {
        Flag bound = *this;
        if (show)
            bound.help += " (default " + value + ")";
        if (!implicitValue.empty())
            bound.help += " (given bare: " + implicitValue + ")";
        bound.set = std::move(setter);
        return bound;
    }
};

/**
 * One command's arguments, e.g. those after `gnnmark run`. Positional
 * placeholders read "<file>" when required, "[<file>]" when optional.
 */
struct Command
{
    std::string usage;
    std::vector<std::string> positionals;
    std::string summary;
    std::vector<std::string> args;
    std::vector<Flag> flags = {};

    /** Parse `args` against the bound `flags`; returns positionals. */
    std::vector<std::string>
    parse(std::vector<Flag> bound)
    {
        flags = std::move(bound);
        std::vector<std::string> given;
        for (size_t i = 0; i < args.size(); ++i) {
            const std::string &a = args[i];
            if (a.rfind("--", 0) != 0) {
                given.push_back(a);
                continue;
            }
            const auto flag =
                std::find_if(flags.begin(), flags.end(),
                             [&](const Flag &f) { return f.name == a; });
            if (flag == flags.end())
                fail("does not take " + a);
            std::string value = flag->implicitValue;
            if (!flag->meta.empty() && i + 1 < args.size() &&
                (value.empty() || std::isdigit(static_cast<unsigned char>(
                                      args[i + 1][0]))))
                value = args[++i];
            else if (!flag->meta.empty() && value.empty())
                fail(a + " needs a value " + flag->meta);
            const std::vector<std::string> choices = split(flag->meta, '|');
            if (choices.size() > 1 &&
                !std::count(choices.begin(), choices.end(), value))
                fail(a + ": expected " + flag->meta + ", got '" + value + "'");
            const std::string problem = flag->set(value);
            if (!problem.empty())
                fail(a + ": " + problem);
        }
        if (given.size() > positionals.size())
            fail("does not take '" + given[positionals.size()] + "'");
        if (given.size() < positionals.size() &&
            positionals[given.size()][0] != '[')
            fail("needs " + positionals[given.size()]);
        return given;
    }

    /** Print `problem` and the command's help to stderr; exit 2. */
    [[noreturn]] void
    fail(const std::string &problem) const
    {
        std::cerr << usage << ": " << problem << "\n\nusage: " << usage;
        for (const std::string &p : positionals)
            std::cerr << " " << p;
        std::cerr << (flags.empty() ? "" : " [options]") << "\n  "
                  << summary << (flags.empty() ? "\n" : "\n\noptions:\n");
        size_t width = 0;
        for (const Flag &f : flags)
            width = std::max(width, f.name.size() + f.meta.size() + 4);
        for (const Flag &f : flags) {
            std::string lhs = f.name;
            if (!f.meta.empty())
                lhs += f.implicitValue.empty() ? " " + f.meta
                                               : " [" + f.meta + "]";
            std::cerr << "  " << padRight(lhs, width) << f.help << "\n";
        }
        std::exit(2);
    }
};

} // namespace cli
} // namespace gnnmark

#endif // GNNMARK_TOOLS_CLI_HH

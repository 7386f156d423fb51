/**
 * @file
 * One declarative flag table for every command-line tool. Each row
 * holds a flag's name, how its value is read (switch, ranged integer,
 * ranged real, text, choice set or custom reader), its help text and
 * the variable it writes. From the rows the table derives strict
 * parsing (a number is the whole argument and in range, a choice one
 * of its names exactly; a missing value, unknown flag or surplus
 * positional is an error) and the usage text with each default read
 * from the bound variable.
 *
 * The table never exits: parseOrUsage() prints the usage and hands
 * back exit code 0 for --help and 2 for an error.
 */

#ifndef WARPED_COMMON_FLAGS_HH
#define WARPED_COMMON_FLAGS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace warped {
namespace cli {

/** Strict unsigned decimal: all of @p text is digits (no sign, space
 *  or trailing junk) and the value is at most @p max. */
std::optional<std::uint64_t> parseUint(const std::string &text,
                                       std::uint64_t max);

/** Strict finite real: all of @p text is one number. */
std::optional<double> parseReal(const std::string &text);

/**
 * The table keeps references to every destination it writes, so each
 * bound variable must outlive the table's parse() calls.
 */
class FlagTable
{
  public:
    /** Reads a flag's value into its destination; returns an error
     *  message, empty on success. Switches receive "". */
    using Reader = std::function<std::string(const std::string &)>;

    /** One row of the table. */
    struct Flag
    {
        std::string name;
        std::string metavar; ///< value placeholder; empty for a switch
        std::string help;
        std::string defaultText; ///< shown in the usage when non-empty
        std::string section;     ///< usage heading it is listed under
        Reader read;

        /** Describe the default in words where the raw value is a
         *  sentinel (0 = derived, ~0 = none); "" hides it. */
        Flag &withDefault(std::string text)
        {
            defaultText = std::move(text);
            return *this;
        }
    };

    enum class Status { Ok, Help, Error };

    /** @p synopsis lines follow "usage: prog"; @p about is printed
     *  between them and the flags. */
    FlagTable(std::string prog, std::string synopsis,
              std::string about = {});

    /** Start a usage heading for the rows registered after it. */
    void section(std::string heading) { section_ = std::move(heading); }

    /** Value read by @p read (the primitive every kind below uses);
     *  an empty @p metavar makes a switch. */
    Flag &custom(const std::string &name, const std::string &metavar,
                 Reader read, const std::string &help);
    /** Switch: presence sets @p dst. */
    Flag &flag(const std::string &name, bool &dst, const std::string &help);
    /** Switch with an arbitrary effect, applied in argument order. */
    Flag &action(const std::string &name, std::function<void()> fn,
                 const std::string &help);
    /** Unsigned integer in [@p min, @p max] (capped at T's range). */
    template <typename T>
    Flag &integer(const std::string &name, T &dst, const std::string &help,
                  std::uint64_t min = 0,
                  std::uint64_t max = std::numeric_limits<T>::max())
    {
        max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
        const auto expects = expectsText(
            "an integer", min > 0 ? std::to_string(min) : "",
            max < std::numeric_limits<T>::max() ? std::to_string(max) : "");
        auto read = [&dst, min, max, expects](const std::string &v) {
            const auto n = parseUint(v, max);
            if (!n || *n < min)
                return expects;
            dst = static_cast<T>(*n);
            return std::string();
        };
        return custom(name, "N", read, help)
            .withDefault(std::to_string(dst));
    }
    /** Finite real in [@p min, @p max]. */
    Flag &real(const std::string &name, double &dst, const std::string &help,
               double min = -std::numeric_limits<double>::infinity(),
               double max = std::numeric_limits<double>::infinity());
    Flag &text(const std::string &name, std::string &dst,
               const std::string &metavar, const std::string &help);
    /** Exactly one of @p names; @p pick gets its index. */
    Flag &choice(const std::string &name, std::vector<std::string> names,
                 std::function<void(std::size_t)> pick,
                 const std::string &help, const std::string &defaultText);
    /** Choice bound to @p dst: each name stores its value; the default
     *  shown is the name of @p dst's value. */
    template <typename T>
    Flag &choice(const std::string &name, T &dst,
                 std::vector<std::pair<std::string, T>> options,
                 const std::string &help)
    {
        std::vector<std::string> names;
        std::string def;
        for (const auto &[n, v] : options) {
            names.push_back(n);
            if (def.empty() && v == dst)
                def = n;
        }
        return choice(
            name, std::move(names),
            [&dst, options](std::size_t i) { dst = options[i].second; },
            help, def);
    }

    /** Positional, filled in registration order. Required when @p dst
     *  starts empty; a preset value makes it optional. A non-empty
     *  @p choices restricts it to those names. */
    void positional(const std::string &name, std::string &dst,
                    const std::string &help,
                    std::vector<std::string> choices = {});

    /** Parse argv[first, argc). `--help` / `-h` anywhere wins. */
    Status parse(int argc, char *const *argv, int first = 1);
    /** parse() plus the exit contract: nullopt to go on, else the exit
     *  code after printing the usage (0 for help, 2 for an error). */
    std::optional<int> parseOrUsage(int argc, char *const *argv,
                                    int first = 1);
    /** Print "prog: msg" and the usage on stderr; returns 2. */
    int fail(const std::string &msg) const;

    /** The last parse error; empty after a clean parse. */
    const std::string &error() const { return error_; }
    /** True when @p name was on the last parsed command line. */
    bool seen(const std::string &name) const { return seen_.count(name); }
    const std::deque<Flag> &flags() const { return flags_; }
    std::string usage() const;

  private:
    struct Positional
    {
        std::string name;
        std::string *dst;
        std::string help;
        std::vector<std::string> choices;
        bool required;
    };

    Status bad(std::string msg);
    /** "expects WHAT", with ">= LO" / "<= HI" / "in [LO, HI]" for the
     *  bounds given (empty = unbounded). */
    static std::string expectsText(const std::string &what,
                                   const std::string &lo,
                                   const std::string &hi);

    std::string prog_, synopsis_, about_;
    std::string section_ = "options:";
    std::deque<Flag> flags_;
    std::vector<Positional> positionals_;
    std::string error_;
    std::set<std::string> seen_;
};

} // namespace cli
} // namespace warped

#endif // WARPED_COMMON_FLAGS_HH

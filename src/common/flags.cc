#include "common/flags.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace warped {
namespace cli {

namespace {

constexpr std::size_t kHelpColumn = 24;
constexpr std::size_t kWidth = 78;

std::string
formatReal(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

std::string
join(const std::vector<std::string> &v, const char *sep)
{
    std::string out;
    for (const auto &s : v)
        out += (out.empty() ? "" : sep) + s;
    return out;
}

/** One usage row: "  LEAD" padded to the help column (or alone on its
 *  line when too wide), then @p help word-wrapped at kWidth. */
void
row(std::string &out, const std::string &lead, const std::string &help)
{
    out += "  " + lead;
    std::size_t col = kHelpColumn;
    if (lead.size() + 3 < kHelpColumn)
        out += std::string(kHelpColumn - 2 - lead.size(), ' ');
    else
        out += '\n' + std::string(kHelpColumn, ' ');
    for (std::size_t i = 0; i < help.size();) {
        const auto end = std::min(help.find(' ', i), help.size());
        const auto word = help.substr(i, end - i);
        if (col > kHelpColumn) {
            const bool wrap = col + 1 + word.size() > kWidth;
            out += wrap ? '\n' + std::string(kHelpColumn, ' ') : " ";
            col = wrap ? kHelpColumn : col + 1;
        }
        out += word;
        col += word.size();
        i = end + 1;
    }
    out += '\n';
}

} // namespace

std::optional<std::uint64_t>
parseUint(const std::string &text, std::uint64_t max)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || *end != '\0' || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseReal(const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || errno != 0 || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

FlagTable::FlagTable(std::string prog, std::string synopsis,
                     std::string about)
    : prog_(std::move(prog)), synopsis_(std::move(synopsis)),
      about_(std::move(about))
{
}

FlagTable::Flag &
FlagTable::custom(const std::string &name, const std::string &metavar,
                  Reader read, const std::string &help)
{
    flags_.push_back(
        {name, metavar, help, "", section_, forward_, std::move(read)});
    return flags_.back();
}

FlagTable::Flag &
FlagTable::flag(const std::string &name, bool &dst, const std::string &help)
{
    return action(name, [&dst] { dst = true; }, help);
}

FlagTable::Flag &
FlagTable::action(const std::string &name, std::function<void()> fn,
                  const std::string &help)
{
    auto read = [fn](const std::string &) {
        fn();
        return std::string();
    };
    return custom(name, "", read, help);
}

FlagTable::Flag &
FlagTable::real(const std::string &name, double &dst,
                const std::string &help, double min, double max)
{
    const auto expects =
        expectsText("a number", std::isfinite(min) ? formatReal(min) : "",
                    std::isfinite(max) ? formatReal(max) : "");
    auto read = [&dst, min, max, expects](const std::string &v) {
        const auto x = parseReal(v);
        if (!x || *x < min || *x > max)
            return expects;
        dst = *x;
        return std::string();
    };
    return custom(name, "F", read, help).withDefault(formatReal(dst));
}

FlagTable::Flag &
FlagTable::text(const std::string &name, std::string &dst,
                const std::string &metavar, const std::string &help)
{
    auto read = [&dst](const std::string &v) {
        dst = v;
        return std::string();
    };
    return custom(name, metavar, read, help).withDefault(dst);
}

FlagTable::Flag &
FlagTable::choice(const std::string &name, std::vector<std::string> names,
                  std::function<void(std::size_t)> pick,
                  const std::string &help, const std::string &defaultText)
{
    auto read = [names, pick](const std::string &v) {
        const auto it = std::find(names.begin(), names.end(), v);
        if (it == names.end())
            return "expects one of " + join(names, ", ");
        pick(static_cast<std::size_t>(it - names.begin()));
        return std::string();
    };
    return custom(name, join(names, "|"), read, help)
        .withDefault(defaultText);
}

void
FlagTable::positional(const std::string &name, std::string &dst,
                      const std::string &help,
                      std::vector<std::string> choices)
{
    positionals_.push_back(
        {name, &dst, help, std::move(choices), dst.empty()});
}

std::string
FlagTable::expectsText(const std::string &what, const std::string &lo,
                       const std::string &hi)
{
    if (!lo.empty() && !hi.empty())
        return "expects " + what + " in [" + lo + ", " + hi + "]";
    if (!lo.empty() || !hi.empty())
        return "expects " + what + (lo.empty() ? " <= " + hi : " >= " + lo);
    return "expects " + what;
}

FlagTable::Status
FlagTable::bad(std::string msg)
{
    error_ = std::move(msg);
    return Status::Error;
}

FlagTable::Status
FlagTable::parse(int argc, char *const *argv, int first)
{
    error_.clear();
    seen_.clear();
    forwarded_.clear();
    std::size_t nextPositional = 0;
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h")
            return Status::Help;
        if (a.size() > 1 && a[0] == '-') {
            const auto f = std::find_if(
                flags_.begin(), flags_.end(),
                [&a](const Flag &row) { return row.name == a; });
            if (f == flags_.end())
                return bad("unknown option '" + a + "'");
            const bool takesValue = !f->metavar.empty();
            if (takesValue && i + 1 >= argc)
                return bad(a + " needs a value (" + f->metavar + ")");
            const std::string v = takesValue ? argv[++i] : "";
            if (const auto err = f->read(v); !err.empty())
                return bad("bad value '" + v + "' for " + a + ": " + err);
            seen_.insert(a);
            if (f->forward) {
                forwarded_.push_back(a);
                if (takesValue)
                    forwarded_.push_back(v);
            }
            continue;
        }
        if (nextPositional >= positionals_.size())
            return bad("unexpected argument '" + a + "'");
        const auto &p = positionals_[nextPositional++];
        if (!p.choices.empty() &&
            std::find(p.choices.begin(), p.choices.end(), a) ==
                p.choices.end())
            return bad("unknown " + p.name + " '" + a + "' (expects one of " +
                       join(p.choices, ", ") + ")");
        *p.dst = a;
    }
    for (std::size_t k = nextPositional; k < positionals_.size(); ++k)
        if (positionals_[k].required)
            return bad("missing " + positionals_[k].name);
    return Status::Ok;
}

std::optional<int>
FlagTable::parseOrUsage(int argc, char *const *argv, int first)
{
    const auto status = parse(argc, argv, first);
    if (status == Status::Ok)
        return std::nullopt;
    if (status == Status::Error)
        return fail(error_);
    std::fputs(usage().c_str(), stdout);
    return 0;
}

int
FlagTable::fail(const std::string &msg) const
{
    std::fprintf(stderr, "%s: %s\n%s", prog_.c_str(), msg.c_str(),
                 usage().c_str());
    return 2;
}

std::string
FlagTable::usage() const
{
    std::string out;
    const char *lead = "usage: ";
    for (std::size_t i = 0; i <= synopsis_.size();) {
        const auto nl = std::min(synopsis_.find('\n', i), synopsis_.size());
        out += lead + prog_ + " " + synopsis_.substr(i, nl - i) + "\n";
        lead = "       ";
        i = nl + 1;
    }
    if (!about_.empty())
        out += "\n" + about_ + (about_.back() == '\n' ? "" : "\n");
    if (!positionals_.empty())
        out += "\narguments:\n";
    for (const auto &p : positionals_)
        row(out, p.name,
            p.help + (p.choices.empty()
                          ? ""
                          : " (one of: " + join(p.choices, " ") + ")"));
    std::string heading;
    for (const auto &f : flags_) {
        if (f.section != heading)
            out += "\n" + (heading = f.section) + "\n";
        row(out, f.metavar.empty() ? f.name : f.name + " " + f.metavar,
            f.help + (f.defaultText.empty()
                          ? ""
                          : " (default " + f.defaultText + ")"));
    }
    return out;
}

} // namespace cli
} // namespace warped

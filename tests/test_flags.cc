/**
 * @file
 * Unit tests: the declarative flag table (common/flags.hh) — every
 * value kind, range and choice errors, missing values, unknown flags,
 * positionals, --help, the forward-to-workers bit, and the generated
 * usage text.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flags.hh"

using namespace warped;
using cli::FlagTable;

namespace {

/** argv-style view over a list of strings (argv[0] = "prog"). */
struct Argv
{
    std::vector<std::string> words;
    std::vector<char *> ptrs;

    Argv(std::initializer_list<const char *> args) : words{"prog"}
    {
        words.insert(words.end(), args.begin(), args.end());
        for (auto &w : words)
            ptrs.push_back(w.data());
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    char *const *argv() const { return ptrs.data(); }
};

FlagTable::Status
parse(FlagTable &t, std::initializer_list<const char *> args)
{
    Argv a(args);
    return t.parse(a.argc(), a.argv());
}

enum class Color
{
    Red,
    Green
};

} // namespace

TEST(Flags, EveryValueKindStoresItsValue)
{
    bool sw = false;
    int hits = 0;
    unsigned u32 = 7;
    std::uint64_t u64 = 0;
    double real = 0.5;
    std::string text;
    Color color = Color::Red;
    std::string custom;
    FlagTable t("prog", "[options]");
    t.flag("--switch", sw, "a switch");
    t.action("--hit", [&] { ++hits; }, "an action");
    t.integer("--u32", u32, "32-bit");
    t.integer("--u64", u64, "64-bit");
    t.real("--real", real, "real");
    t.text("--text", text, "F", "text");
    t.choice("--color", color,
             {{"red", Color::Red}, {"green", Color::Green}}, "choice");
    t.custom("--pair", "A:B",
             [&](const std::string &v) -> std::string {
                 if (v.find(':') == std::string::npos)
                     return "expects A:B";
                 custom = v;
                 return {};
             },
             "custom");
    ASSERT_EQ(parse(t, {"--switch", "--hit", "--hit", "--u32", "4294967295",
                        "--u64", "18446744073709551615", "--real", "-2.5",
                        "--text", "out.json", "--color", "green", "--pair",
                        "a:b"}),
              FlagTable::Status::Ok)
        << t.error();
    EXPECT_TRUE(sw);
    EXPECT_EQ(hits, 2);
    EXPECT_EQ(u32, 4294967295u);
    EXPECT_EQ(u64, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(real, -2.5);
    EXPECT_EQ(text, "out.json");
    EXPECT_EQ(color, Color::Green);
    EXPECT_EQ(custom, "a:b");
    EXPECT_TRUE(t.seen("--u32"));
    EXPECT_TRUE(t.error().empty());
}

TEST(Flags, IntegersAreStrictAndRanged)
{
    unsigned n = 3;
    FlagTable t("prog", "[options]");
    t.integer("--n", n, "count", 1, 8);
    for (const char *bad : {"banana", "", "-1", "+1", "1x", " 1", "0", "9",
                            "99999999999999999999"}) {
        EXPECT_EQ(parse(t, {"--n", bad}), FlagTable::Status::Error) << bad;
        EXPECT_NE(t.error().find("--n"), std::string::npos);
        EXPECT_EQ(n, 3u) << "a rejected value must not be stored";
    }
    EXPECT_EQ(parse(t, {"--n", "8"}), FlagTable::Status::Ok);
    EXPECT_EQ(n, 8u);

    unsigned wide = 0;
    FlagTable w("prog", "");
    w.integer("--w", wide, "u32");
    EXPECT_EQ(parse(w, {"--w", "4294967296"}), FlagTable::Status::Error);
}

TEST(Flags, RealsAreFiniteAndRanged)
{
    double f = 1.0;
    FlagTable t("prog", "");
    t.real("--f", f, "fraction", 0.0, 1.0);
    for (const char *bad : {"nan", "inf", "1.5", "-0.1", "0.5x", ""})
        EXPECT_EQ(parse(t, {"--f", bad}), FlagTable::Status::Error) << bad;
    EXPECT_EQ(parse(t, {"--f", "0.25"}), FlagTable::Status::Ok);
    EXPECT_DOUBLE_EQ(f, 0.25);
}

TEST(Flags, ChoicesAreExact)
{
    Color c = Color::Red;
    FlagTable t("prog", "");
    t.choice("--color", c, {{"red", Color::Red}, {"green", Color::Green}},
             "choice");
    for (const char *bad : {"Green", "gree", "greenish", ""})
        EXPECT_EQ(parse(t, {"--color", bad}), FlagTable::Status::Error)
            << bad;
    EXPECT_EQ(c, Color::Red);
    EXPECT_NE(t.error().find("red, green"), std::string::npos);

    // The callback form applies in argument order.
    std::vector<std::size_t> picks;
    FlagTable u("prog", "");
    u.choice("--dmr", {"on", "off"},
             [&](std::size_t i) { picks.push_back(i); }, "dmr", "on");
    EXPECT_EQ(parse(u, {"--dmr", "off", "--dmr", "on"}),
              FlagTable::Status::Ok);
    EXPECT_EQ(picks, (std::vector<std::size_t>{1, 0}));
}

TEST(Flags, CustomReaderErrorsSurface)
{
    FlagTable t("prog", "");
    t.custom("--pair", "A:B",
             [](const std::string &) { return std::string("expects A:B"); },
             "pair");
    EXPECT_EQ(parse(t, {"--pair", "x"}), FlagTable::Status::Error);
    EXPECT_NE(t.error().find("expects A:B"), std::string::npos);
}

TEST(Flags, MissingValueIsAnError)
{
    unsigned n = 0;
    std::string s;
    FlagTable t("prog", "");
    t.integer("--n", n, "count");
    t.text("--out", s, "F", "path");
    EXPECT_EQ(parse(t, {"--n"}), FlagTable::Status::Error);
    EXPECT_NE(t.error().find("needs a value"), std::string::npos);
    EXPECT_EQ(parse(t, {"--n", "2", "--out"}), FlagTable::Status::Error);
}

TEST(Flags, UnknownFlagIsAnError)
{
    bool b = false;
    FlagTable t("prog", "");
    t.flag("--known", b, "known");
    EXPECT_EQ(parse(t, {"--unknown"}), FlagTable::Status::Error);
    EXPECT_NE(t.error().find("--unknown"), std::string::npos);
    EXPECT_EQ(parse(t, {"-k"}), FlagTable::Status::Error);
}

TEST(Flags, PositionalsFillInOrderAndRefuseSurplus)
{
    std::string w, opt = "all";
    FlagTable t("prog", "<w> [o]");
    t.positional("<w>", w, "required", {"A", "B"});
    t.positional("[o]", opt, "optional");
    EXPECT_EQ(parse(t, {}), FlagTable::Status::Error);
    EXPECT_NE(t.error().find("missing <w>"), std::string::npos);
    EXPECT_EQ(parse(t, {"C"}), FlagTable::Status::Error);
    EXPECT_EQ(parse(t, {"A"}), FlagTable::Status::Ok);
    EXPECT_EQ(w, "A");
    EXPECT_EQ(opt, "all");
    EXPECT_EQ(parse(t, {"B", "x"}), FlagTable::Status::Ok);
    EXPECT_EQ(opt, "x");
    EXPECT_EQ(parse(t, {"A", "x", "y"}), FlagTable::Status::Error);
    EXPECT_NE(t.error().find("unexpected argument 'y'"), std::string::npos);
}

TEST(Flags, HelpWinsAnywhere)
{
    std::string w;
    unsigned n = 0;
    FlagTable t("prog", "<w>");
    t.positional("<w>", w, "required");
    t.integer("--n", n, "count");
    EXPECT_EQ(parse(t, {"--help"}), FlagTable::Status::Help);
    EXPECT_EQ(parse(t, {"-h"}), FlagTable::Status::Help);
    EXPECT_EQ(parse(t, {"w", "--n", "1", "--help", "--bogus"}),
              FlagTable::Status::Help);
    Argv a({"--help"});
    testing::internal::CaptureStdout();
    const auto rc = t.parseOrUsage(a.argc(), a.argv());
    const auto out = testing::internal::GetCapturedStdout();
    ASSERT_TRUE(rc.has_value());
    EXPECT_EQ(*rc, 0);
    EXPECT_EQ(out, t.usage());
}

TEST(Flags, ErrorsMapToExitTwo)
{
    unsigned n = 0;
    FlagTable t("prog", "");
    t.integer("--n", n, "count");
    Argv bad({"--n", "x"});
    testing::internal::CaptureStderr();
    const auto rc = t.parseOrUsage(bad.argc(), bad.argv());
    const auto err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(rc.has_value());
    EXPECT_EQ(*rc, 2);
    EXPECT_EQ(err.rfind("prog: bad value 'x' for --n", 0), 0u) << err;
    EXPECT_NE(err.find(t.usage()), std::string::npos);

    Argv good({"--n", "3"});
    EXPECT_FALSE(t.parseOrUsage(good.argc(), good.argv()).has_value());
}

TEST(Flags, ForwardBitCollectsVerbatimTokensInOrder)
{
    unsigned sites = 0, jobs = 0;
    std::string out;
    bool sweep = false, intra = true;
    FlagTable t("prog", "<w>");
    std::string w;
    t.positional("<w>", w, "workload");
    t.section("campaign options:", true);
    t.integer("--sites", sites, "sites");
    t.action("--no-intra", [&] { intra = false; }, "forwarded switch");
    t.integer("--jobs", jobs, "jobs");
    t.section("orchestrator options:");
    t.text("--out", out, "F", "orchestrator only");
    t.flag("--sweep", sweep, "orchestrator only");
    ASSERT_EQ(parse(t, {"SCAN", "--sites", "060", "--out", "r.json",
                        "--no-intra", "--sweep", "--jobs", "2", "--sites",
                        "5"}),
              FlagTable::Status::Ok);
    EXPECT_EQ(t.forwarded(),
              (std::vector<std::string>{"--sites", "060", "--no-intra",
                                        "--jobs", "2", "--sites", "5"}));
    EXPECT_EQ(sites, 5u);
    EXPECT_FALSE(intra);
    for (const auto &f : t.flags())
        EXPECT_EQ(f.forward, f.section == "campaign options:") << f.name;
    // A fresh parse starts a fresh record.
    ASSERT_EQ(parse(t, {"SCAN"}), FlagTable::Status::Ok);
    EXPECT_TRUE(t.forwarded().empty());
    EXPECT_FALSE(t.seen("--sites"));
}

TEST(Flags, UsageListsEveryEntryWithDefaultsFromTheField)
{
    unsigned qsize = 10, shards = 0;
    double frac = 0.25;
    std::string out, w;
    bool b = false;
    Color c = Color::Green;
    FlagTable t("prog", "<w> [options]\nsub <w>", "About the tool.\n");
    t.positional("<w>", w, "workload", {"A", "B"});
    t.integer("--qsize", qsize, "ReplayQ entries");
    t.section("more options:");
    t.real("--frac", frac, "fraction", 0.0, 1.0);
    t.text("--out", out, "F", "report path");
    t.flag("--flag", b, "a switch");
    t.choice("--color", c, {{"red", Color::Red}, {"green", Color::Green}},
             "paint");
    t.integer("--shards", shards, "shard count", 1).withDefault("");
    const auto u = t.usage();
    EXPECT_EQ(u.rfind("usage: prog <w> [options]\n       prog sub <w>\n", 0),
              0u)
        << u;
    EXPECT_NE(u.find("About the tool."), std::string::npos);
    EXPECT_NE(u.find("more options:"), std::string::npos);
    EXPECT_NE(u.find("(one of: A B)"), std::string::npos);
    for (const auto &f : t.flags())
        EXPECT_NE(u.find("  " + f.name), std::string::npos) << f.name;
    EXPECT_NE(u.find("--qsize N"), std::string::npos);
    EXPECT_NE(u.find("ReplayQ entries (default 10)"), std::string::npos);
    EXPECT_NE(u.find("(default 0.25)"), std::string::npos);
    EXPECT_NE(u.find("--color red|green"), std::string::npos);
    EXPECT_NE(u.find("(default green)"), std::string::npos);
    EXPECT_EQ(u.find("shard count (default"), std::string::npos);
    // Defaults are captured at registration, not after a parse.
    ASSERT_EQ(parse(t, {"A", "--qsize", "3"}), FlagTable::Status::Ok);
    EXPECT_EQ(t.usage(), u);
}

TEST(Flags, StrictScalarHelpers)
{
    EXPECT_EQ(cli::parseUint("65535", 65535), 65535u);
    EXPECT_FALSE(cli::parseUint("65536", 65535));
    EXPECT_FALSE(cli::parseUint("12\n", 65535));
    EXPECT_FALSE(cli::parseUint("", 10));
    EXPECT_EQ(cli::parseReal("1e-3"), 1e-3);
    EXPECT_FALSE(cli::parseReal("1e999"));
    EXPECT_FALSE(cli::parseReal("x"));
}

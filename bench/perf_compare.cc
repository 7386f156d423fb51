/**
 * @file
 * Perf-regression gate: compares a fresh perf_harness metrics JSON
 * against a checked-in baseline (bench/baselines/).
 *
 * Gate policy, tuned for shared CI runners whose wall clocks are
 * noisy but whose *relative* throughput is stable within ~2×:
 *  - throughput gauges (`*.cycles_per_sec`, `*.instr_per_sec`) below
 *    baseline × (1 - tolerance) produce a WARN line;
 *  - only a drop past the hard-fail ratio (default 2×, i.e. current
 *    slower than baseline / 2) makes the tool exit 1;
 *  - deterministic counters (`*.cycles`, `*.instructions`,
 *    `*.launches`) that differ at all produce a WARN — that means
 *    simulator behavior changed and the baseline is stale, not that
 *    the code got slower.
 *
 * Input format: the flat one-object JSON that
 * trace::MetricsRegistry::toJson emits (sorted keys, integers for
 * counters, six-digit floats for gauges). Parsed with a purpose-built
 * scanner rather than a JSON library dependency.
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hh"

using namespace warped;

namespace {

/**
 * Parse MetricsRegistry::toJson output: one flat object of
 * "key": number pairs. Tolerates arbitrary whitespace; rejects
 * anything structurally different so a truncated or hand-mangled
 * file fails loudly instead of comparing garbage.
 */
bool
parseFlatJson(const std::string &path, std::map<std::string, double> &out)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "perf_compare: cannot read %s\n",
                     path.c_str());
        return false;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();

    std::size_t i = 0;
    const auto skipWs = [&] {
        while (i < text.size() && std::isspace(
                   static_cast<unsigned char>(text[i])))
            ++i;
    };
    skipWs();
    if (i >= text.size() || text[i] != '{')
        goto malformed;
    ++i;
    skipWs();
    if (i < text.size() && text[i] == '}')
        return true; // empty object
    while (true) {
        skipWs();
        if (i >= text.size() || text[i] != '"')
            goto malformed;
        ++i;
        {
            const std::size_t start = i;
            while (i < text.size() && text[i] != '"')
                ++i;
            if (i >= text.size())
                goto malformed;
            const std::string key = text.substr(start, i - start);
            ++i;
            skipWs();
            if (i >= text.size() || text[i] != ':')
                goto malformed;
            ++i;
            skipWs();
            const char *num = text.c_str() + i;
            char *end = nullptr;
            errno = 0;
            const double v = std::strtod(num, &end);
            if (end == num || errno != 0)
                goto malformed;
            i += static_cast<std::size_t>(end - num);
            out[key] = v;
        }
        skipWs();
        if (i < text.size() && text[i] == ',') {
            ++i;
            continue;
        }
        if (i < text.size() && text[i] == '}')
            return true;
        goto malformed;
    }
malformed:
    std::fprintf(stderr, "perf_compare: %s is not a flat metrics "
                 "JSON object\n", path.c_str());
    return false;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Deterministic counter whose drift means the baseline is stale. */
bool
isDeterministicKey(const std::string &k)
{
    return endsWith(k, ".cycles") || endsWith(k, ".instructions") ||
           endsWith(k, ".launches") || k == "perf.repeat" ||
           k == "perf.smoke";
}

/** Higher-is-better throughput gauge the regression gate watches. */
bool
isThroughputKey(const std::string &k)
{
    return endsWith(k, ".cycles_per_sec") ||
           endsWith(k, ".instr_per_sec");
}

/** One --require-speedup demand: current[key] >= baseline[key]*factor. */
struct SpeedupReq
{
    std::string key;
    double factor;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string base_path, cur_path;
    double tolerance = 0.25;
    double hard_fail_ratio = 2.0;
    std::vector<SpeedupReq> speedups;
    const double positive = std::numeric_limits<double>::denorm_min();
    const double inf = std::numeric_limits<double>::infinity();

    cli::FlagTable t("perf_compare", "BASELINE.json CURRENT.json [options]",
                     "Compare a perf_harness metrics JSON against a "
                     "baseline.\n");
    t.positional("BASELINE.json", base_path, "baseline metrics");
    t.positional("CURRENT.json", cur_path, "fresh metrics");
    t.real("--tolerance", tolerance,
           "warn when throughput falls below baseline*(1-F)", positive,
           inf);
    t.real("--hard-fail-ratio", hard_fail_ratio,
           "exit 1 when baseline/current >= F", positive, inf);
    t.custom("--require-speedup", "KEY:F",
             [&](const std::string &v) -> std::string {
                 const auto colon = v.rfind(':');
                 const auto f = colon == std::string::npos || colon == 0
                                    ? std::nullopt
                                    : cli::parseReal(v.substr(colon + 1));
                 if (!f || *f <= 0.0)
                     return "expects KEY:F with F > 0";
                 speedups.push_back({v.substr(0, colon), *f});
                 return {};
             },
             "exit 1 unless current[KEY] >= baseline[KEY] * F, an "
             "improvement gate (e.g. "
             "perf.campaign_ref.instr_per_sec:2.0); repeatable");
    if (const auto rc = t.parseOrUsage(argc, argv))
        return *rc;

    std::map<std::string, double> base, cur;
    if (!parseFlatJson(base_path, base) || !parseFlatJson(cur_path, cur))
        return 2;

    unsigned warns = 0, fails = 0, compared = 0;

    for (const auto &[key, bval] : base) {
        const auto it = cur.find(key);
        if (it == cur.end()) {
            std::printf("WARN  %-40s missing from current run\n",
                        key.c_str());
            ++warns;
            continue;
        }
        const double cval = it->second;
        if (isDeterministicKey(key)) {
            if (bval != cval) {
                std::printf("WARN  %-40s deterministic counter "
                            "drifted: %.0f -> %.0f (baseline is "
                            "stale — regenerate it)\n",
                            key.c_str(), bval, cval);
                ++warns;
            }
            continue;
        }
        if (!isThroughputKey(key))
            continue; // wall_ms / rss: informational only
        ++compared;
        if (bval <= 0.0 || cval <= 0.0)
            continue;
        const double ratio = bval / cval; // >1 means current is slower
        if (ratio >= hard_fail_ratio) {
            std::printf("FAIL  %-40s %.0f -> %.0f  (%.2fx slower, "
                        ">= %.2fx hard-fail threshold)\n",
                        key.c_str(), bval, cval, ratio,
                        hard_fail_ratio);
            ++fails;
        } else if (cval < bval * (1.0 - tolerance)) {
            std::printf("WARN  %-40s %.0f -> %.0f  (%.2fx slower, "
                        "past the %.0f%% tolerance but under the "
                        "%.2fx hard-fail bar)\n",
                        key.c_str(), bval, cval, ratio,
                        tolerance * 100.0, hard_fail_ratio);
            ++warns;
        }
    }
    for (const auto &[key, cval] : cur) {
        (void)cval;
        if (!base.count(key)) {
            std::printf("NOTE  %-40s new metric (not in baseline)\n",
                        key.c_str());
        }
    }

    // Improvement gates: unlike the regression checks above these
    // demand the current run be *faster* than the baseline by a
    // factor — used when a PR's acceptance criterion is a speedup
    // (current vs an old baseline), not parity.
    for (const auto &req : speedups) {
        const auto bit = base.find(req.key);
        const auto cit = cur.find(req.key);
        if (bit == base.end() || cit == cur.end() ||
            bit->second <= 0.0) {
            std::printf("FAIL  %-40s --require-speedup key missing "
                        "or zero in %s\n", req.key.c_str(),
                        bit == base.end() ? "baseline" : "current");
            ++fails;
            continue;
        }
        const double ratio = cit->second / bit->second;
        if (ratio < req.factor) {
            std::printf("FAIL  %-40s %.0f -> %.0f  (%.2fx, below "
                        "the required %.2fx speedup)\n",
                        req.key.c_str(), bit->second, cit->second,
                        ratio, req.factor);
            ++fails;
        } else {
            std::printf("PASS  %-40s %.0f -> %.0f  (%.2fx >= "
                        "required %.2fx speedup)\n",
                        req.key.c_str(), bit->second, cit->second,
                        ratio, req.factor);
        }
    }

    std::printf("perf_compare: %u throughput metrics compared, "
                "%u warnings, %u hard failures\n",
                compared, warns, fails);
    return fails > 0 ? 1 : 0;
}

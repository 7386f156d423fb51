/**
 * @file
 * trace::MetricsRegistry — named counters and gauges, the flat
 * per-run metrics surface.
 *
 * Counters are monotonically accumulated 64-bit integers; gauges are
 * point-in-time doubles (coverage, means). Keys iterate in sorted
 * order (std::map), so the JSON rendering is deterministic and safe
 * to diff in the golden-trace suite. Merging adds counters and keeps
 * the maximum of gauges — the semantics every per-SM fold in this
 * repo needs (sums for activity, peaks for watermarks); derived
 * gauges such as coverage are stamped once after the fold.
 */

#ifndef WARPED_TRACE_METRICS_HH
#define WARPED_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>

namespace warped {
namespace trace {

class MetricsRegistry
{
  public:
    /** Reference to the named counter, creating it at zero. */
    std::uint64_t &counter(const std::string &name);

    /** Reference to the named gauge, creating it at zero. */
    double &gauge(const std::string &name);

    /** Counter value; 0 when absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Gauge value; 0.0 when absent. */
    double gaugeValue(const std::string &name) const;

    bool hasCounter(const std::string &name) const;
    bool hasGauge(const std::string &name) const;

    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }
    const std::map<std::string, double> &gauges() const
    {
        return gauges_;
    }

    /** Add @p other's counters in; gauges fold by maximum. */
    void merge(const MetricsRegistry &other);

    /**
     * One flat JSON object, keys sorted, counters as integers and
     * gauges with six fractional digits — byte-stable across runs,
     * worker counts, and compilers.
     */
    std::string toJson() const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
};

/**
 * Parse every `"key": <unsigned integer>` pair out of a flat JSON
 * document — the inverse of MetricsRegistry::toJson for the counter
 * keys (gauges and quoted string values are skipped). Used by the
 * shard-delta loader, which campaign checkpoints share; tolerant of
 * torn input, so callers MUST validate integrity separately (see
 * flatJsonComplete and countersFingerprint).
 */
std::map<std::string, std::uint64_t>
parseFlatCounters(const std::string &text);

/**
 * Structural completeness check for a flat metrics JSON document: the
 * text must contain a '{' and its last non-whitespace character must
 * be the matching '}'. A torn (partially written) document fails this
 * even when parseFlatCounters would happily return its surviving
 * prefix.
 */
bool flatJsonComplete(const std::string &text);

/**
 * Order-insensitive-input, deterministic fingerprint of a counter
 * map: a splitmix64 chain over every key byte and value, in the
 * map's sorted iteration order. Keys starting with @p skip_prefix
 * are excluded (so a document can embed its own fingerprint).
 */
std::uint64_t
countersFingerprint(const std::map<std::string, std::uint64_t> &kv,
                    const std::string &skip_prefix = "");

} // namespace trace
} // namespace warped

#endif // WARPED_TRACE_METRICS_HH
